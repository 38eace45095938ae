// Package shard is the worker runtime for the pair pipeline's shard
// specs (see internal/core/shard.go): a Pool ships planned enumeration
// and evaluation specs as gob frames over one kind of connection, opened
// by one of two dialers — the stdin/stdout pipes of `pxqld -shard-worker`
// subprocesses, or in-memory pipes to worker goroutines, the tests'
// reference (see transport.go) — and each worker walks them with the
// same kernels the coordinator runs locally when no pool is configured.
// Only pxqld owns a pool: a worker holds the whole log, so workers on
// this box are its only use. Only the two quadratic walks ship:
// the training sample they feed is small by construction (§4.3), so
// materialization, growth and diagnostics stay on the coordinator, and a
// question whose sample is drawn by rank sends no frame at all.
//
// Records travel on the frame, not the spec: each Task carries the log's
// segments as content-addressed slices (the runner's RunEnum / RunEval
// receive them from core at the moment a walk ships), and the pool
// strips every slice a worker already holds to a hash reference. A
// payload crosses the wire only inside the task that reads it: there is
// no frame that ships records ahead of need.
//
// Pool implements core.ShardRunner and returns results in spec order,
// so the merged output is byte-identical to local execution at every
// shard count, through both dialers, and with the content-addressed slice
// cache (cache.go) in any state — the property the equivalence test
// suite pins.
package shard

import (
	"fmt"
	"sync"
)

// dispatch hands one decoded task to its executor — the body of the
// one worker loop every dialer's worker runs. The
// task's slices resolve through the worker's cache (see load): payload
// frames decode-and-cache, reference frames hit the cache or report
// CacheMiss for the coordinator to re-ship.
func (ws *workerState) dispatch(t *Task) *Result {
	res := &Result{Version: Version, Seq: t.Seq}
	defer func() {
		// A panic must never kill a worker serving other shards: corrupt
		// frames that slip past spec validation surface as task errors.
		if r := recover(); r != nil {
			res.Enum, res.Eval = nil, nil
			res.CacheMiss = false
			res.Err = fmt.Sprintf("shard: task panicked: %v", r)
		}
	}()
	if t.Version != Version {
		res.Err = fmt.Sprintf("shard: protocol version %d, want %d", t.Version, Version)
		return res
	}
	if t.Enum == nil && t.Eval == nil {
		res.Err = "shard: task carries no spec"
		return res
	}
	data, miss, err := ws.load(t)
	if miss {
		res.CacheMiss = true
		return res
	}
	if err == nil {
		if t.Enum != nil {
			res.Enum, err = t.Enum.RunWith(data)
		} else {
			res.Eval, err = t.Eval.RunWith(data)
		}
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// firstErr collects the first error across concurrent workers.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
