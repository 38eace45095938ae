// Package shard is the worker runtime for the pair pipeline's shard
// specs (see internal/core/shard.go): a Pool ships planned enumeration
// and evaluation specs to workers reached through pluggable transports —
// subprocess stdin/stdout pipes (`pxql -shard-worker`), in-process
// channel workers, or authenticated TCP sockets to remote machines
// running `pxql -shard-worker -listen` (see transport.go and Serve) —
// and each worker walks them with the same kernels the coordinator runs
// locally when no pool is configured. Only the two quadratic walks ship:
// the training sample they feed is small by construction (§4.3), so
// materialization, growth and diagnostics stay on the coordinator.
//
// Pool implements core.ShardRunner and returns results in spec order,
// so the merged output is byte-identical to local execution at every
// shard count, on every transport, and with the content-addressed slice
// cache (cache.go) in any state — the property the equivalence test
// suite pins.
package shard

import (
	"fmt"
	"sync"
)

// dispatch hands one decoded task to its executor — shared by every
// worker loop (subprocess, socket connection, in-proc goroutine). The
// spec's slices resolve through the worker's cache (see load): payload
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
	if t.Prefetch != nil {
		// A prefetch frame only warms the cache: decode the payload into
		// the LRU and ack with an empty result. A reference frame here is
		// a coordinator bug; report it as a miss so the sender never
		// records the hash as shipped.
		if t.Prefetch.Ref {
			res.CacheMiss = true
			return res
		}
		if _, _, err := ws.resolve(t.Prefetch); err != nil {
			res.Err = err.Error()
		}
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
