package eval

import (
	"runtime"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/shard"
)

// Harness tables must be identical at every parallelism level: reps and
// cells write into rep-indexed slots and aggregation reads them in rep
// order, so the rendered artifact — float summation order included — is
// byte-for-byte the same.
func TestHarnessTablesIdenticalAcrossParallelism(t *testing.T) {
	render := func(p int) string {
		h := testHarness(t)
		h.Parallelism = p
		tab, err := h.PrecisionVsWidth(WhySlowerDespiteSameNumInstances(), []int{0, 1, 3})
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	base := render(1)
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := render(p); got != base {
			t.Errorf("PrecisionVsWidth at parallelism %d differs:\n%s\nvs serial:\n%s", p, got, base)
		}
	}
}

func TestLogSizeSweepIdenticalAcrossParallelism(t *testing.T) {
	render := func(p int) string {
		h := testHarness(t)
		h.Parallelism = p
		tab, err := h.LogSizeSweep([]float64{0.3, 0.5}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	base := render(1)
	if got := render(4); got != base {
		t.Errorf("LogSizeSweep at parallelism 4 differs:\n%s\nvs serial:\n%s", got, base)
	}
}

// TestHarnessTablesIdenticalSharded pins the sharded harness path —
// explanation generation and metric evaluation both fanned through one
// shared shard runner (the channel-transport pool, so the full frame
// protocol and slice cache are exercised) — against local execution,
// byte for byte. The pool persists across both repetitions, so the
// second table renders against warm worker caches.
func TestHarnessTablesIdenticalSharded(t *testing.T) {
	render := func(shards int, runner core.ShardRunner) string {
		h := testHarness(t)
		h.Parallelism = 2
		h.Shards = shards
		h.Runner = runner
		tab, err := h.PrecisionVsWidth(WhySlowerDespiteSameNumInstances(), []int{0, 1, 3})
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	base := render(0, nil)
	if got := render(3, nil); got != base {
		t.Errorf("PrecisionVsWidth with three local specs per walk differs:\n%s\nvs direct:\n%s", got, base)
	}
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
	t.Cleanup(pool.Close)
	for pass := 0; pass < 2; pass++ {
		if got := render(3, pool); got != base {
			t.Errorf("PrecisionVsWidth on the worker pool (pass %d) differs:\n%s\nvs direct:\n%s", pass, got, base)
		}
	}
	if s := pool.Stats(); s.SliceHits == 0 {
		t.Errorf("harness reuse produced no slice-cache hits: %+v", s)
	}
}

func TestTable3IdenticalAcrossParallelism(t *testing.T) {
	render := func(p int) string {
		h := testHarness(t)
		h.Parallelism = p
		tab, err := h.Table3(2)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	base := render(1)
	if got := render(4); got != base {
		t.Errorf("Table3 at parallelism 4 differs:\n%s\nvs serial:\n%s", got, base)
	}
}
