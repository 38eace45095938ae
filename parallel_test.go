package perfxplain

import (
	"net"
	"runtime"
	"sync"
	"testing"
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
	id1, id2, ok := FindPairOfInterest(jobs, q, 7)
	if !ok {
		t.Fatal("no pair of interest in the small sweep")
	}
	q.Bind(id1, id2)
	ex, err := NewExplainer(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainWithDespite(q)
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

// TestRemoteWorkersPublicAPI pins the public remote path end to end:
// ServeShardWorkers on a loopback listener, coordinators reaching it
// via Options.ShardAddrs and via a shared WorkerPool, explanations and
// held-out metrics byte-identical to local execution, and the shared
// pool surviving — caches warm — across several explainers.
func TestRemoteWorkersPublicAPI(t *testing.T) {
	jobs := detLog(t)
	baseX, baseM := explainAt(t, jobs, 1)

	const token = "public-api-token"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeShardWorkers(ln, token)
	t.Cleanup(func() { ln.Close() })
	addr := ln.Addr().String()

	q, err := ParseQuery(detQuery)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := FindPairOfInterest(jobs, q, 7)
	if !ok {
		t.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)

	// Per-explainer remote pool via Options.ShardAddrs.
	opt := Options{Width: 3, DespiteWidth: 2, Seed: 7, Shards: 4,
		ShardAddrs: []string{addr}, ShardToken: token}
	ex, err := NewExplainer(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainWithDespite(q)
	if err != nil {
		t.Fatal(err)
	}
	if x.String() != baseX {
		t.Errorf("remote explanation differs:\n%s\nvs direct:\n%s", x.String(), baseX)
	}
	m, err := ex.Evaluate(jobs, q, x)
	if err != nil {
		t.Fatal(err)
	}
	if m != baseM {
		t.Errorf("remote metrics %+v differ from direct %+v", m, baseM)
	}
	if s, ok := ex.ShardStats(); !ok || s.FramesSent == 0 {
		t.Errorf("remote explainer reported no shard traffic: %+v ok=%v", s, ok)
	}
	ex.Close()
	ex.Close() // Close is idempotent

	// One shared pool across several explainers (the harness topology).
	pool, err := NewWorkerPool(PoolOptions{Addrs: []string{addr}, Token: token, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	for round := 0; round < 2; round++ {
		sx, err := NewExplainer(jobs, Options{Width: 3, DespiteWidth: 2, Seed: 7, Shards: 4, SharedPool: pool})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.ExplainWithDespite(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != baseX {
			t.Errorf("shared-pool round %d explanation differs:\n%s\nvs direct:\n%s", round, got.String(), baseX)
		}
		gm, err := sx.Evaluate(jobs, q, got)
		if err != nil {
			t.Fatal(err)
		}
		if gm != baseM {
			t.Errorf("shared-pool round %d metrics %+v differ from direct %+v", round, gm, baseM)
		}
		sx.Close() // must not tear down the shared pool
	}
	if s := pool.Stats(); s.SliceHits == 0 {
		t.Errorf("shared pool recorded no slice-cache hits across rounds: %+v", s)
	}
}

// TestShardWorkerOptionsResolveIdentically pins the one resolver behind
// NewExplainer and the package-level Evaluate: shard-worker options
// without Options.Shards are rejected by both with the same error —
// Evaluate used to ignore them silently — and Shards without workers is
// accepted by both as local execution.
func TestShardWorkerOptionsResolveIdentically(t *testing.T) {
	jobs := detLog(t)
	q, err := ParseQuery(detQuery)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := FindPairOfInterest(jobs, q, 7)
	if !ok {
		t.Fatal("no pair of interest")
	}
	q.Bind(id1, id2)
	ex, err := NewExplainer(jobs, Options{Seed: 7, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(jobs, q, x, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Evaluate(jobs, q, x, Options{Seed: 7, Shards: 3}); err != nil || got != want {
		t.Errorf("Evaluate with Shards and no workers: %+v, %v; want %+v", got, err, want)
	}

	shared, err := NewWorkerPool(PoolOptions{Command: []string{"unused"}})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	for name, opt := range map[string]Options{
		"ShardWorkers": {ShardWorkers: 2},
		"ShardAddrs":   {ShardAddrs: []string{"127.0.0.1:1"}, ShardToken: "t"},
		"SharedPool":   {SharedPool: shared},
	} {
		_, newErr := NewExplainer(jobs, opt)
		_, evalErr := Evaluate(jobs, q, x, opt)
		if newErr == nil || evalErr == nil || newErr.Error() != evalErr.Error() ||
			newErr.Error() != "perfxplain: shard workers require Options.Shards" {
			t.Errorf("%s without Shards: NewExplainer: %v, Evaluate: %v; want the same rejection", name, newErr, evalErr)
		}
	}
	_, newErr := NewExplainer(jobs, Options{Shards: 2, ShardAddrs: []string{"127.0.0.1:1"}})
	_, evalErr := Evaluate(jobs, q, x, Options{Shards: 2, ShardAddrs: []string{"127.0.0.1:1"}})
	if newErr == nil || evalErr == nil || newErr.Error() != evalErr.Error() {
		t.Errorf("ShardAddrs without a token: NewExplainer: %v, Evaluate: %v; want the same rejection", newErr, evalErr)
	}
}
