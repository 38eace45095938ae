// Package shard is the execution runtime for the pair pipeline's shard
// specs (see internal/core/shard.go): it runs planned enumeration,
// materialization, candidate-scoring and evaluation shards either on
// this process's worker pool (InProc — the default) or on a Pool of
// workers reached through pluggable transports: subprocess stdin/stdout
// pipes (`pxql -shard-worker`), in-process channel workers, or
// authenticated TCP sockets to remote machines running `pxql
// -shard-worker -listen` (see transport.go and Serve).
//
// Both runtimes implement core.ShardRunner and return results in spec
// order, so the merged output is byte-identical to the serial path at
// every shard count, on every transport, and with the content-addressed
// slice cache (cache.go) in any state — the property the equivalence
// test suite pins.
package shard

import (
	"fmt"
	"sync"

	"perfxplain/internal/core"
	"perfxplain/internal/par"
)

// InProc executes shard specs on this process's worker pool. It is the
// default runtime: no serialization, no processes — each distinct slice
// of a batch is decoded once, then par.Do over the specs, results in
// spec order.
type InProc struct {
	// Workers bounds the concurrent specs (<= 0 means GOMAXPROCS).
	Workers int
}

// runInProc is the one batch executor behind InProc's four Run methods:
// it resolves every spec's slices through a batch-lifetime cache (the
// specs of a batch share their slices, so each decodes — and each
// segment list combines — once, not once per spec), then runs the specs
// concurrently, capturing the first error in spec order.
func runInProc[S, R any](r InProc, specs []S, task func(*S) Task,
	run func(*S, *core.SliceData) (*R, error)) ([]R, error) {

	tasks := make([]Task, len(specs))
	for i := range specs {
		tasks[i] = task(&specs[i])
	}
	datas, err := newBatchState().loadBatch(tasks)
	if err != nil {
		return nil, err
	}
	out := make([]R, len(specs))
	errs := make([]error, len(specs))
	par.Do(len(specs), r.Workers, func(i int) {
		res, err := run(&specs[i], datas[i])
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = *res
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunEnum implements core.ShardRunner.
func (r InProc) RunEnum(specs []core.EnumSpec) ([]core.EnumResult, error) {
	return runInProc(r, specs, func(s *core.EnumSpec) Task { return Task{Enum: s} }, (*core.EnumSpec).RunWith)
}

// RunMat implements core.ShardRunner.
func (r InProc) RunMat(specs []core.MatSpec) ([]core.MatResult, error) {
	return runInProc(r, specs, func(s *core.MatSpec) Task { return Task{Mat: s} }, (*core.MatSpec).RunWith)
}

// RunScore implements core.ShardRunner.
func (r InProc) RunScore(specs []core.ScoreSpec) ([]core.ScoreResult, error) {
	return runInProc(r, specs, func(s *core.ScoreSpec) Task { return Task{Score: s} }, (*core.ScoreSpec).RunWith)
}

// RunEval implements core.ShardRunner.
func (r InProc) RunEval(specs []core.EvalSpec) ([]core.EvalResult, error) {
	return runInProc(r, specs, func(s *core.EvalSpec) Task { return Task{Eval: s} }, (*core.EvalSpec).RunWith)
}

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
			res.Enum, res.Mat, res.Score, res.Eval = nil, nil, nil, nil
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
	if t.Enum == nil && t.Mat == nil && t.Score == nil && t.Eval == nil {
		res.Err = "shard: task carries no spec"
		return res
	}
	data, miss, err := ws.load(t)
	if miss {
		res.CacheMiss = true
		return res
	}
	if err == nil {
		switch {
		case t.Enum != nil:
			res.Enum, err = t.Enum.RunWith(data)
		case t.Mat != nil:
			res.Mat, err = t.Mat.RunWith(data)
		case t.Score != nil:
			res.Score, err = t.Score.RunWith(data)
		default:
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
