package main

import (
	"testing"

	"perfxplain/bench/result"
)

func TestCompareVerdicts(t *testing.T) {
	lower := result.Def{Name: "explain_p25_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := result.Def{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2, c * 1.1, c * 0.9} }
	for _, c := range []struct {
		name string
		def  result.Def
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(100), "ok"},
		{"inside the bound", lower, tight(100), tight(108), "ok"},
		{"slower than the bound", lower, tight(100), tight(115), "worse"},
		{"faster", lower, tight(100), tight(50), "ok"},
		{"throughput down", higher, tight(100), tight(85), "worse"},
		{"throughput up", higher, tight(100), tight(130), "ok"},
		{"noisy and overlapping", lower, wide(100), wide(115), "unresolved"},
		{"noisy parent, change inside it", lower, wide(100), tight(100), "unresolved"},
		{"noisy but every run better", lower, wide(100), wide(50), "ok"},
		{"noisy but every run better, higher", higher, wide(100), wide(200), "ok"},
		{"one run a side, worse", lower, []float64{100}, []float64{120}, "worse"},
		{"one run a side, ok", lower, []float64{100}, []float64{105}, "ok"},
	} {
		if got := compare("w", c.def, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %q (worse by %.3f, spreads %.3f and %.3f), want %q",
				c.name, got.verdict, got.change, got.spreadA, got.spreadB, c.want)
		}
	}
}

// diff pairs the two sides by workload and metric, pools every run of a
// side, and leaves out what only one side measured.
func TestDiffPoolsRuns(t *testing.T) {
	run := func(workload string, ms float64) result.Envelope {
		return result.Envelope{Schema: result.Schema, Workloads: []result.Workload{{
			Name:     workload,
			EndToEnd: map[string]result.Value{"explain_p25_ms": {Value: ms, Unit: "ms"}},
		}}}
	}
	a := []result.Envelope{run("paper_sweep", 10), run("paper_sweep", 10.2), run("big_blocked", 200)}
	b := []result.Envelope{run("paper_sweep", 10.3), run("grow_sharded", 300)}
	rows := diff(a, b)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.workload != "paper_sweep" || r.def.Name != "explain_p25_ms" || len(r.a) != 2 || len(r.b) != 1 || r.verdict != "ok" {
		t.Errorf("row %+v", r)
	}
}
