// Package par provides the deterministic fork-join primitives the
// explanation pipeline is parallelised with.
//
// Every helper is index-addressed: workers pull loop indices from a
// shared counter and write results only into caller-owned slots keyed by
// that index. Which goroutine runs which index is scheduling-dependent,
// but because no helper exposes completion order, the caller's output
// layout is identical at every worker count — the property the
// pipeline's determinism guarantee (same seed ⇒ byte-identical
// explanations for any Parallelism) is built on.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalises a user-facing parallelism knob: values <= 0 mean
// "use all available cores" (runtime.GOMAXPROCS(0)).
func Resolve(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Do runs fn(i) for every i in [0, n), using up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). fn must be safe to call from
// multiple goroutines and must communicate only through index-addressed
// storage. Do returns after every call completes; a panic in any fn is
// re-raised in the caller.
func Do(n, workers int, fn func(i int)) {
	DoWorkers(n, workers, func(_, i int) { fn(i) })
}

// Workers returns how many goroutines Do and DoWorkers run for n indices
// at the given parallelism: at most one per index, and at least one.
func Workers(n, workers int) int {
	return max(1, min(Resolve(workers), n))
}

// DoWorkers is Do that also passes each call its worker's number, in
// [0, Workers(n, workers)). One worker's calls run one after another, so
// fn may keep scratch in a slot of that number; which indices a worker
// runs depends on scheduling, so nothing but scratch may depend on it.
// The caller is worker 0, so a call starts Workers(n, workers)-1
// goroutines.
func DoWorkers(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	r := &doRun{n: n, fn: fn}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			r.work(w)
		}()
	}
	r.work(0)
	r.wg.Wait()
	if r.panicked != nil {
		panic(r.panicked)
	}
}

// doRun is the state one DoWorkers call's workers share.
type doRun struct {
	n        int
	fn       func(worker, i int)
	next     atomic.Int64
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any
}

// work runs indices as worker w until none is left. A panic is kept for
// the caller to re-raise, and drains the remaining indices so sibling
// workers exit.
func (r *doRun) work(w int) {
	defer func() {
		if p := recover(); p != nil {
			r.panicMu.Lock()
			if r.panicked == nil {
				r.panicked = p
			}
			r.panicMu.Unlock()
			r.next.Store(int64(r.n))
		}
	}()
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		r.fn(w, i)
	}
}
