package shard

// Pool runs shard specs on a fleet of workers reached through
// transports — subprocess pipes, in-process channel workers, or
// authenticated TCP sockets to remote machines (see transport.go).
// Workers are dialed lazily on first use and persist across batches (an
// Explain makes one enumeration call — two with a generated despite
// clause; a harness adds evaluation rounds);
// Close terminates them. Specs are pulled off a shared counter, so
// scheduling is dynamic, but results land in spec-indexed slots —
// output never depends on which worker ran what.
//
// The pool is also the coordinator half of content-addressed slice
// shipping: it remembers, per connection, which slice hashes it has
// shipped, sends hash-only reference frames for known ones, and
// re-ships the payload when a worker reports a cache miss. Stats()
// exposes the frame, byte and cache counters.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"perfxplain/internal/core"
)

// ErrPoolClosed is returned by batch calls after Close.
var ErrPoolClosed = errors.New("shard: pool is closed")

// Pool is a core.ShardRunner backed by worker transports.
type Pool struct {
	// Command is the worker argv, e.g. ["pxql", "-shard-worker"], used
	// when Dialer is nil: each worker is a subprocess speaking the shard
	// protocol on stdin/stdout.
	Command []string
	// Env is appended to the parent environment of every subprocess
	// worker (ignored with a custom Dialer).
	Env []string
	// Workers is the number of worker connections (<= 0 means 1).
	Workers int
	// Dialer overrides how workers are reached — SubprocessDialer is the
	// Command default; InProcDialer runs workers as goroutines;
	// SocketDialer connects to remote listeners.
	Dialer Dialer

	mu     sync.Mutex
	closed bool
	procs  []*workerProc
	stats  Stats

	// prefetchSeq numbers prefetch frames; they round-trip on their own,
	// outside any batch's 0..n-1 task numbering.
	prefetchSeq atomic.Int64
}

// workerProc is one leased connection: a transport plus the
// coordinator-side record of which slice hashes were shipped on it —
// mapped to the payload's size estimate, computed once per hash so the
// hit path's bytes-saved accounting never rescans the slice. The mutex
// serializes one round-trip at a time.
type workerProc struct {
	mu   sync.Mutex
	tr   Transport
	sent map[string]int
	// prefetched marks hashes in sent that were shipped by a Prefetch
	// frame and not yet referenced by a task — each mark converts to one
	// prefetch-hit counter tick on first use, so the stats report how
	// much prefetched payload actually paid off.
	prefetched map[string]bool
}

// Stats returns a snapshot of the pool's runtime counters.
func (p *Pool) Stats() StatsSnapshot { return p.stats.Snapshot() }

func (p *Pool) dialer() (Dialer, error) {
	if p.Dialer != nil {
		return p.Dialer, nil
	}
	if len(p.Command) == 0 {
		return nil, errors.New("shard: pool has no worker command or dialer")
	}
	return SubprocessDialer{Command: p.Command, Env: p.Env}, nil
}

// lease tops the pool up to its configured worker count (first use
// dials the whole fleet; discarded workers are replaced here) and
// returns a snapshot of the live list — a copy, because discard may
// compact the pool's own slice while a batch is still iterating its
// lease.
func (p *Pool) lease() ([]*workerProc, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	d, err := p.dialer()
	if err != nil {
		return nil, err
	}
	n := p.Workers
	if n <= 0 {
		n = 1
	}
	for len(p.procs) < n {
		tr, err := d.Dial(&p.stats)
		if err != nil {
			return nil, err
		}
		p.procs = append(p.procs, &workerProc{tr: tr, sent: make(map[string]int), prefetched: make(map[string]bool)})
	}
	return append([]*workerProc(nil), p.procs...), nil
}

// discard removes a failed worker from the pool and closes its
// transport. Only the dead worker dies: concurrent batches keep their
// round-trips on the surviving workers, so a crash fails the queries
// that used it, not the pool — the next lease dials a replacement.
func (p *Pool) discard(w *workerProc) {
	p.mu.Lock()
	for i, pw := range p.procs {
		if pw == w {
			p.procs = append(p.procs[:i], p.procs[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	_ = w.tr.Close() // the worker already failed; its close error adds nothing
}

// exchange performs one raw frame round-trip, wrapping transport
// failures — a truncated result frame from a worker dying mid-write
// included — in *TransportError.
func (w *workerProc) exchange(p *Pool, t *Task) (*Result, error) {
	if err := w.tr.Send(t); err != nil {
		return nil, &TransportError{Op: "send", Peer: w.tr.Peer(), Diag: w.tr.Diag(), Err: err}
	}
	p.stats.frameSent()
	res, err := w.tr.Recv()
	if err != nil {
		return nil, &TransportError{Op: "recv", Peer: w.tr.Peer(), Diag: w.tr.Diag(), Err: err}
	}
	p.stats.frameReceived()
	if res.Version != Version {
		return nil, &TransportError{Op: "recv", Peer: w.tr.Peer(), Diag: w.tr.Diag(),
			Err: fmt.Errorf("result protocol version %d, want %d", res.Version, Version)}
	}
	if res.Seq != t.Seq {
		return nil, &TransportError{Op: "recv", Peer: w.tr.Peer(), Diag: w.tr.Diag(),
			Err: fmt.Errorf("result seq %d for task %d", res.Seq, t.Seq)}
	}
	// A successful result must answer with the task's own spec kind: a
	// worker sending an enumeration result for an eval task is protocol
	// corruption, not a mergeable answer.
	if res.Err == "" && !res.CacheMiss {
		if (res.Enum != nil) != (t.Enum != nil) || (res.Eval != nil) != (t.Eval != nil) {
			return nil, &TransportError{Op: "recv", Peer: w.tr.Peer(), Diag: w.tr.Diag(),
				Err: fmt.Errorf("result kind does not match task %d's spec", t.Seq)}
		}
	}
	return res, nil
}

// roundTrip sends one task and reads its result, routing the task's
// content-addressed slices through the per-connection cache protocol:
// each hash the worker has already received ships as a reference frame
// (a segmented task mixes references with fresh payloads in one frame),
// and a worker-side cache miss on any reference (eviction) triggers one
// full re-ship of the whole frame. A transport failure is fatal for the
// worker; the caller discards it.
func (w *workerProc) roundTrip(p *Pool, t *Task) (*Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ss := t.slices()
	hashed := false
	for _, s := range ss {
		if s.Hash != "" {
			hashed = true
			break
		}
	}
	if !hashed {
		return w.exchange(p, t)
	}
	if st, refd := t.strippedWith(w.sent); len(refd) > 0 {
		res, err := w.exchange(p, st)
		if err != nil {
			return nil, err
		}
		if !res.CacheMiss {
			for _, h := range refd {
				p.stats.sliceHit(w.sent[h])
				if w.prefetched[h] {
					delete(w.prefetched, h)
					p.stats.prefetchHit()
				}
			}
			w.markShipped(p, ss)
			return res, nil
		}
		// At least one reference was evicted worker-side (the miss result
		// does not say which): forget every reference in the frame and fall
		// through to a full re-ship. Prefetched payloads among them never
		// paid off.
		for _, h := range refd {
			delete(w.sent, h)
			delete(w.prefetched, h)
		}
	}
	res, err := w.exchange(p, t)
	if err != nil {
		return nil, err
	}
	if res.CacheMiss {
		return nil, &TransportError{Op: "recv", Peer: w.tr.Peer(), Diag: w.tr.Diag(),
			Err: errors.New("worker reported a cache miss for a full payload frame")}
	}
	w.markShipped(p, ss)
	return res, nil
}

// markShipped records every hashed payload slice of a successful frame
// as held by the worker, counting a cache miss for each newly shipped
// hash. Callers hold w.mu.
func (w *workerProc) markShipped(p *Pool, ss []core.LogSlice) {
	for i := range ss {
		s := &ss[i]
		if s.Hash == "" || s.Ref {
			continue
		}
		if _, shipped := w.sent[s.Hash]; shipped {
			continue
		}
		p.stats.sliceMiss()
		w.sent[s.Hash] = s.SizeEstimate()
	}
}

// PrefetchSlices ships content-addressed slice payloads to every pooled
// worker ahead of the tasks that will reference them — it implements
// core.SlicePrefetcher, the seam the explanation pipeline uses to
// overlap round N+1's slice transfer with round N's compute. Shipping
// is asynchronous (one goroutine per worker, each frame its own
// round-trip under the worker's round-trip mutex) and purely advisory:
// slices already shipped on a connection are skipped, transport errors
// discard the failed worker and abandon its remaining prefetches, and a
// task racing ahead of its prefetch simply ships the payload itself —
// results are byte-identical with prefetching on, off, or half-landed.
func (p *Pool) PrefetchSlices(slices []core.LogSlice) {
	if len(slices) == 0 {
		return
	}
	procs, err := p.lease()
	if err != nil {
		return
	}
	for _, w := range procs {
		w := w
		go func() {
			for i := range slices {
				s := slices[i] // copy: the frame must outlive the caller's slice
				if s.Hash == "" || s.Ref {
					continue
				}
				w.mu.Lock()
				if _, shipped := w.sent[s.Hash]; shipped {
					w.mu.Unlock()
					continue
				}
				t := &Task{Version: Version, Seq: int(p.prefetchSeq.Add(1)), Prefetch: &s}
				res, err := w.exchange(p, t)
				if err != nil {
					w.mu.Unlock()
					p.discard(w)
					return
				}
				if res.Err == "" && !res.CacheMiss {
					w.sent[s.Hash] = s.SizeEstimate()
					w.prefetched[s.Hash] = true
					p.stats.prefetchSentInc()
				}
				w.mu.Unlock()
			}
		}()
	}
}

// Close terminates every worker and marks the pool closed: subsequent
// batch calls return ErrPoolClosed. Close is idempotent and safe to
// call concurrently — with other Closes and with in-flight batches,
// whose round-trips fail with transport errors rather than hanging or
// panicking.
func (p *Pool) Close() {
	p.mu.Lock()
	procs := p.procs
	p.procs = nil
	p.closed = true
	p.mu.Unlock()
	for _, w := range procs {
		_ = w.tr.Close() // teardown: workers are going away regardless
	}
}

// do ships the task batch across the pool and returns results in task
// order. A transport failure discards the failed worker (only it — see
// discard) and fails this batch; in-band task errors fail the batch
// without killing anything.
func (p *Pool) do(tasks []Task) ([]Result, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	procs, err := p.lease()
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(tasks))
	var next atomic.Int64
	var fe firstErr
	var wg sync.WaitGroup
	nw := len(procs)
	if nw > len(tasks) {
		nw = len(tasks)
	}
	wg.Add(nw)
	for wi := 0; wi < nw; wi++ {
		wp := procs[wi]
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				res, err := wp.roundTrip(p, &tasks[i])
				if err != nil {
					fe.set(err)
					p.discard(wp)
					next.Store(int64(len(tasks))) // drain so siblings exit
					return
				}
				results[i] = *res
			}
		}()
	}
	wg.Wait()
	if err := fe.get(); err != nil {
		return nil, err
	}
	for i := range results {
		if results[i].Err != "" {
			return nil, fmt.Errorf("shard: worker task %d: %s", i, results[i].Err)
		}
	}
	return results, nil
}

// RunEnum implements core.ShardRunner.
func (p *Pool) RunEnum(specs []core.EnumSpec) ([]core.EnumResult, error) {
	tasks := make([]Task, len(specs))
	for i := range specs {
		tasks[i] = Task{Version: Version, Seq: i, Enum: &specs[i]}
	}
	results, err := p.do(tasks)
	if err != nil {
		return nil, err
	}
	out := make([]core.EnumResult, len(specs))
	for i := range results {
		if results[i].Enum == nil {
			return nil, fmt.Errorf("shard: worker returned no enumeration result for spec %d", i)
		}
		out[i] = *results[i].Enum
	}
	return out, nil
}

// RunEval implements core.ShardRunner.
func (p *Pool) RunEval(specs []core.EvalSpec) ([]core.EvalResult, error) {
	tasks := make([]Task, len(specs))
	for i := range specs {
		tasks[i] = Task{Version: Version, Seq: i, Eval: &specs[i]}
	}
	results, err := p.do(tasks)
	if err != nil {
		return nil, err
	}
	out := make([]core.EvalResult, len(specs))
	for i := range results {
		if results[i].Eval == nil {
			return nil, fmt.Errorf("shard: worker returned no evaluation result for spec %d", i)
		}
		out[i] = *results[i].Eval
	}
	return out, nil
}
