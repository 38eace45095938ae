package eval

import (
	"runtime"
	"testing"
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
