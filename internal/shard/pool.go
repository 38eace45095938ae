package shard

// Pool runs shard specs on a fleet of workers reached through one
// framed connection each — subprocess pipes, or in-process pipes in
// tests (see transport.go).
// Workers are dialed lazily on first use and persist across batches (an
// Explain makes one enumeration call — two with a generated despite
// clause; a harness adds evaluation rounds);
// Close terminates them. Specs are pulled off a shared counter, so
// scheduling is dynamic, but results land in spec-indexed slots —
// output never depends on which worker ran what.
//
// The pool is also the coordinator half of content-addressed slice
// shipping: it remembers, per connection, the slice hashes of the last
// frame the worker answered without error — exactly what the worker
// holds — and sends those slices as hash-only references. Payloads ship
// only inside task frames, so every round-trip belongs to a batch call
// and no pool goroutine outlives it. Stats() exposes the frame, byte and
// slice counters.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"perfxplain/internal/core"
)

// ErrPoolClosed is returned by batch calls after Close.
var ErrPoolClosed = errors.New("shard: pool is closed")

// Pool is a core.ShardRunner backed by worker connections.
type Pool struct {
	// Command is the worker argv, e.g. ["pxqld", "-shard-worker"], used
	// when Dialer is nil: each worker is a subprocess speaking the shard
	// protocol on stdin/stdout.
	Command []string
	// Env is appended to the parent environment of every subprocess
	// worker (ignored with a custom Dialer).
	Env []string
	// Workers is the number of worker connections (<= 0 means 1).
	Workers int
	// Dialer overrides how workers are reached — SubprocessDialer is the
	// Command default; InProcDialer runs workers as goroutines behind
	// in-memory pipes.
	Dialer Dialer

	mu     sync.Mutex
	closed bool
	procs  []*workerProc
	stats  Stats
}

// workerProc is one leased connection plus the hashes of the slices its
// worker holds: those of the last frame it answered without error. The
// mutex serializes one round-trip at a time.
type workerProc struct {
	mu   sync.Mutex
	c    *Conn
	held map[string]bool
}

// PoolConfig names a worker fleet for NewPool.
type PoolConfig struct {
	// Workers is the number of worker subprocesses (default 1).
	Workers int
	// Command is the subprocess argv (default: this executable with
	// -shard-worker appended).
	Command []string
	// Env is appended to each subprocess worker's environment.
	Env []string
}

// NewPool builds the subprocess pool cfg names. It is the one place a
// fleet is configured; the workers are dialed lazily on first use.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cmd := cfg.Command
	if len(cmd) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("shard: resolve worker command: %w", err)
		}
		cmd = []string{exe, "-shard-worker"}
	}
	return &Pool{Command: cmd, Env: cfg.Env, Workers: cfg.Workers}, nil
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
		c, err := d.Dial(&p.stats)
		if err != nil {
			return nil, err
		}
		p.procs = append(p.procs, &workerProc{c: c})
	}
	return append([]*workerProc(nil), p.procs...), nil
}

// discard removes a failed worker from the pool and closes its
// connection. Only the dead worker dies: concurrent batches keep their
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
	_ = w.c.Close() // the worker already failed; its close error adds nothing
}

// exchange performs one raw frame round-trip, wrapping transport
// failures — a truncated result frame from a worker dying mid-write
// included — in *TransportError.
func (w *workerProc) exchange(p *Pool, t *Task) (*Result, error) {
	if err := w.c.send(t); err != nil {
		return nil, w.c.fail("send", err)
	}
	p.stats.framesSent.Add(1)
	res, err := w.c.recv()
	if err != nil {
		return nil, w.c.fail("recv", err)
	}
	p.stats.framesReceived.Add(1)
	if res.Version != Version {
		return nil, w.c.fail("recv", fmt.Errorf("result protocol version %d, want %d", res.Version, Version))
	}
	if res.Seq != t.Seq {
		return nil, w.c.fail("recv", fmt.Errorf("result seq %d for task %d", res.Seq, t.Seq))
	}
	// A successful result must answer with the task's own spec kind: a
	// worker sending an enumeration result for an eval task is protocol
	// corruption, not a mergeable answer.
	if res.Err == "" {
		if (res.Enum != nil) != (t.Enum != nil) || (res.Eval != nil) != (t.Eval != nil) {
			return nil, w.c.fail("recv", fmt.Errorf("result kind does not match task %d's spec", t.Seq))
		}
	}
	return res, nil
}

// roundTrip sends one task, its slices stripped to references where
// the worker holds them, and reads its result. The frame's slices become
// what the worker holds — nothing, if it answered with an error. A
// transport failure is fatal for the worker; the caller discards it.
func (w *workerProc) roundTrip(p *Pool, t *Task) (*Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := t.strippedWith(w.held)
	res, err := w.exchange(p, st)
	if err != nil {
		return nil, err
	}
	held := make(map[string]bool, len(st.Slices))
	for _, s := range st.Slices {
		if s.Ref {
			p.stats.sliceHits.Add(1)
		} else {
			p.stats.sliceMisses.Add(1)
		}
		held[s.Hash] = true
	}
	if res.Err != "" {
		held = nil
	}
	w.held = held
	return res, nil
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
		_ = w.c.Close() // teardown: workers are going away regardless
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
func (p *Pool) RunEnum(slices []core.LogSlice, specs []core.EnumSpec) ([]core.EnumResult, error) {
	tasks := make([]Task, len(specs))
	for i := range specs {
		tasks[i] = Task{Version: Version, Seq: i, Slices: slices, Enum: &specs[i]}
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
func (p *Pool) RunEval(slices []core.LogSlice, specs []core.EvalSpec) ([]core.EvalResult, error) {
	tasks := make([]Task, len(specs))
	for i := range specs {
		tasks[i] = Task{Version: Version, Seq: i, Slices: slices, Eval: &specs[i]}
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
