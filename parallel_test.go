package perfxplain

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"perfxplain/internal/shard"
)

// The public determinism contract of Options.Parallelism: with the same
// seed, the end-to-end pipeline — collection, explanation with a
// generated despite clause, and held-out evaluation — produces
// byte-identical output at Parallelism 1, 4 and GOMAXPROCS.

var (
	detOnce sync.Once
	detJobs *Log
	detErr  error
)

func detLog(t *testing.T) *Log {
	t.Helper()
	detOnce.Do(func() {
		detJobs, _, detErr = Collect(SweepOptions{Small: true, Seed: 42})
	})
	if detErr != nil {
		t.Fatal(detErr)
	}
	return detJobs
}

const detQuery = `
DESPITE numinstances_issame = T AND pigscript_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`

func explainAt(t *testing.T, jobs *Log, parallelism int) (explanation string, metrics Metrics) {
	t.Helper()
	opt := Options{Width: 3, DespiteWidth: 2, Seed: 7, Parallelism: parallelism}
	q, err := ParseQuery(detQuery)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := FindPairOfInterestP(jobs, q, 7, 0)
	if !ok {
		t.Fatal("no pair of interest in the small sweep")
	}
	q.Bind(id1, id2)
	ex, err := NewExplainer(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainWithDespiteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(jobs, q, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	return x.String(), m
}

func TestExplanationIdenticalAcrossParallelism(t *testing.T) {
	jobs := detLog(t)
	baseX, baseM := explainAt(t, jobs, 1)
	if baseX == "" {
		t.Fatal("empty explanation")
	}
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		gotX, gotM := explainAt(t, jobs, p)
		if gotX != baseX {
			t.Errorf("Parallelism=%d explanation differs:\n%s\nvs Parallelism=1:\n%s", p, gotX, baseX)
		}
		if gotM != baseM {
			t.Errorf("Parallelism=%d metrics %+v differ from serial %+v", p, gotM, baseM)
		}
	}
}

// TestRemoteWorkersPublicAPI pins the public pool path end to end: a
// caller-owned WorkerPool of workers outside the coordinator (in-process
// pipes, the full frame protocol, codec and held slices), explanations
// and held-out metrics byte-identical to local execution, and the pool
// surviving — slices held — across several explainers and evaluations.
func TestRemoteWorkersPublicAPI(t *testing.T) {
	jobs := detLog(t)
	baseX, baseM := explainAt(t, jobs, 1)

	q, err := ParseQuery(detQuery)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := FindPairOfInterestP(jobs, q, 7, 0)
	if !ok {
		t.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)

	pool := &WorkerPool{&shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}}
	t.Cleanup(pool.Close)
	opt := Options{Width: 3, DespiteWidth: 2, Seed: 7, Shards: 4, SharedPool: pool}
	for round := 0; round < 2; round++ {
		ex, err := NewExplainer(jobs, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.ExplainWithDespiteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != baseX {
			t.Errorf("round %d explanation differs:\n%s\nvs direct:\n%s", round, got.String(), baseX)
		}
		gm, err := Evaluate(jobs, q, got, opt)
		if err != nil {
			t.Fatal(err)
		}
		if gm != baseM {
			t.Errorf("round %d metrics %+v differ from direct %+v", round, gm, baseM)
		}
	}
	if s := pool.Stats(); s.FramesSent == 0 || s.SliceHits == 0 {
		t.Errorf("pool recorded no traffic or no slice-cache hits across rounds: %+v", s)
	}
}

// TestShardWorkerOptionsResolveIdentically pins the one resolver behind
// NewExplainer and Evaluate: a SharedPool without Options.Shards is
// rejected by both with the same error, and Shards without a pool is
// accepted by both as local execution.
func TestShardWorkerOptionsResolveIdentically(t *testing.T) {
	jobs := detLog(t)
	q, err := ParseQuery(detQuery)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := FindPairOfInterestP(jobs, q, 7, 0)
	if !ok {
		t.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)
	ex, err := NewExplainer(jobs, Options{Seed: 7, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(jobs, q, x, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Evaluate(jobs, q, x, Options{Seed: 7, Shards: 3}); err != nil || got != want {
		t.Errorf("Evaluate with Shards and no pool: %+v, %v; want %+v", got, err, want)
	}

	shared, err := NewWorkerPool(PoolOptions{Command: []string{"unused"}})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	opt := Options{SharedPool: shared}
	_, newErr := NewExplainer(jobs, opt)
	_, evalErr := Evaluate(jobs, q, x, opt)
	if newErr == nil || evalErr == nil || newErr.Error() != evalErr.Error() ||
		newErr.Error() != "perfxplain: Options.SharedPool requires Options.Shards" {
		t.Errorf("SharedPool without Shards: NewExplainer: %v, Evaluate: %v; want the same rejection", newErr, evalErr)
	}
}
