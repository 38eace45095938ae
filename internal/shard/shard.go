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
// receive them from core at the moment a walk ships). One rule, kept on
// both ends of each connection, says which of them travel as hash
// references: a worker holds exactly the slices of the last frame it
// answered without error, so the pool strips the slices of that frame
// to references and ships every other one in full. An error result
// empties the held set on both ends. A payload crosses the wire only
// inside the task that reads it.
//
// Pool implements core.ShardRunner and returns results in spec order,
// so the merged output is byte-identical to local execution at every
// shard count and through both dialers, whatever the worker holds — the
// property the equivalence test suite pins.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"perfxplain/internal/joblog"
)

// workerState is what one worker loop (one subprocess, one in-proc
// worker goroutine) keeps between frames: the slices of the last frame
// it answered without error, by hash, and their concatenation — the
// whole log that frame's spec walked. The tasks of one batch all carry
// the same slices, so every task after the first reuses the
// concatenated log instead of rebuilding it. A worker loop serves its
// frames serially, so no locking.
type workerState struct {
	held   map[string]*joblog.Log
	hashes []string    // the held frame's slice hashes, in order
	log    *joblog.Log // their concatenation
}

// dispatch hands one decoded task to its executor — the body of the
// one worker loop every dialer's worker runs — and keeps the task's
// slices if it answers without error, or drops everything if not.
func (ws *workerState) dispatch(t *Task) *Result {
	res := &Result{Version: Version, Seq: t.Seq}
	var next *workerState
	defer func() {
		// A panic must never kill a worker serving other shards: corrupt
		// frames that slip past spec validation surface as task errors.
		if r := recover(); r != nil {
			res.Enum, res.Eval = nil, nil
			res.Err = fmt.Sprintf("shard: task panicked: %v", r)
		}
		if res.Err != "" {
			next = &workerState{}
		}
		*ws = *next
	}()
	if t.Version != Version {
		res.Err = fmt.Sprintf("shard: protocol version %d, want %d", t.Version, Version)
		return res
	}
	if t.Enum == nil && t.Eval == nil {
		res.Err = "shard: task carries no spec"
		return res
	}
	next, err := ws.load(t)
	if err == nil {
		if t.Enum != nil {
			res.Enum, err = t.Enum.RunWith(next.log)
		} else {
			res.Eval, err = t.Eval.RunWith(next.log)
		}
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// load resolves the task's slices — a reference from the held set, a
// payload by decoding it — and returns the state the frame leaves
// behind: its slices and their concatenation. A frame naming exactly
// the held slices reuses the held log. A reference to a slice the
// worker does not hold is an error: the coordinator only ever names the
// last frame's slices.
func (ws *workerState) load(t *Task) (*workerState, error) {
	ss := t.Slices
	if len(ss) == 0 {
		return nil, errors.New("shard: task carries no slices")
	}
	hashes := make([]string, len(ss))
	for i := range ss {
		hashes[i] = ss[i].Hash
	}
	if ws.log != nil && slices.Equal(hashes, ws.hashes) {
		return ws, nil
	}
	next := &workerState{held: make(map[string]*joblog.Log, len(ss)), hashes: hashes}
	logs := make([]*joblog.Log, len(ss))
	for i := range ss {
		s := &ss[i]
		var err error
		if s.Ref {
			if logs[i] = ws.held[s.Hash]; logs[i] == nil {
				return nil, fmt.Errorf("shard: slice %.12s is referenced but not held", s.Hash)
			}
		} else if logs[i], err = s.Decode(); err != nil {
			return nil, err
		}
		next.held[s.Hash] = logs[i]
	}
	if len(logs) == 1 {
		next.log = logs[0]
		return next, nil
	}
	log, err := joblog.Concat(logs)
	if err != nil {
		return nil, fmt.Errorf("shard: segment slices: %w", err)
	}
	next.log = log
	return next, nil
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
