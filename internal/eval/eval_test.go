package eval

import (
	"strings"
	"sync"
	"testing"

	"perfxplain/internal/collect"
	"perfxplain/internal/joblog"
)

// sweepOnce collects the small sweep a single time for all tests in this
// package; collection is deterministic so sharing is safe.
var (
	sweepOnce sync.Once
	sweepRes  *collect.Result
	sweepErr  error
)

func smallLogs(t *testing.T) (*joblog.Log, *joblog.Log) {
	t.Helper()
	sweepOnce.Do(func() {
		sweepRes, sweepErr = collect.SmallSweep(42).Collect()
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepRes.Jobs, sweepRes.Tasks
}

func testHarness(t *testing.T) *Harness {
	jobs, tasks := smallLogs(t)
	h := NewHarness(jobs, tasks, 7)
	h.Reps = 3
	h.MaxPairs = 40000
	return h
}

// paperHarness runs the paper's protocol (10 repetitions) over its full
// 540-job sweep, collected once. The cross-technique claims are asserted
// here and not on the 32-job grid, where their margins sit inside the
// spread between harness seeds.
var (
	paperOnce sync.Once
	paperRes  *collect.Result
	paperErr  error
)

func paperHarness(t *testing.T) *Harness {
	t.Helper()
	paperOnce.Do(func() {
		paperRes, paperErr = collect.DefaultSweep(42).Collect()
	})
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	return NewHarness(paperRes.Jobs, paperRes.Tasks, 7)
}

// checkBeatsBaselines asserts Figure 3's cross-technique claim at point
// i of the table: PerfXplain's precision is no lower than either
// baseline's.
func checkBeatsBaselines(t *testing.T, tab *Table, i int) {
	t.Helper()
	px := seriesByName(tab, TechPerfXplain)
	for _, tech := range []string{TechRuleOfThumb, TechSimButDiff} {
		if s := seriesByName(tab, tech); px.Mean[i] < s.Mean[i] {
			t.Errorf("%s at %s %v: PerfXplain precision %.3f below %s %.3f",
				tab.ID, tab.XLabel, px.X[i], px.Mean[i], tech, s.Mean[i])
		}
	}
}

func TestTemplatesParse(t *testing.T) {
	for _, tmpl := range Templates() {
		q, err := tmpl.Query()
		if err != nil {
			t.Fatalf("%s: %v", tmpl.Name, err)
		}
		if len(q.Observed) == 0 || len(q.Expected) == 0 {
			t.Errorf("%s: incomplete query", tmpl.Name)
		}
		if len(q.Despite) == 0 {
			t.Errorf("%s: benchmark queries carry a despite clause", tmpl.Name)
		}
	}
}

func TestPrecisionVsWidthShape(t *testing.T) {
	h := testHarness(t)
	tab, err := h.PrecisionVsWidth(WhySlowerDespiteSameNumInstances(), []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Figure 3(b)" {
		t.Errorf("ID = %q", tab.ID)
	}
	if len(tab.Series) != 3 {
		t.Fatalf("series = %d", len(tab.Series))
	}
	px := seriesByName(tab, TechPerfXplain)
	if px == nil {
		t.Fatal("no PerfXplain series")
	}
	// Width 0 is the same for every technique (empty clause).
	for _, tech := range AllTechniques {
		s := seriesByName(tab, tech)
		if s.Mean[0] != px.Mean[0] {
			t.Errorf("width-0 precision differs: %v vs %v", s.Mean[0], px.Mean[0])
		}
	}
	// PerfXplain precision must improve with width on this workload.
	if px.Mean[2] <= px.Mean[0] {
		t.Errorf("PerfXplain width-3 precision %v not above width-0 %v", px.Mean[2], px.Mean[0])
	}
	// All precisions are probabilities.
	for _, s := range tab.Series {
		for i, m := range s.Mean {
			if m < 0 || m > 1 {
				t.Errorf("%s[%d] = %v out of range", s.Name, i, m)
			}
		}
	}
	// Render is exercised for coverage and sanity.
	out := tab.String()
	if !strings.Contains(out, "PerfXplain") || !strings.Contains(out, "width") {
		t.Errorf("render missing columns:\n%s", out)
	}

	// The paper's Figure 3(b) claim, on its own log: at width 3
	// PerfXplain is at least as precise as both baselines. Over harness
	// seeds 1–8 it reads 0.89–0.95 against 0.41–0.45 — a margin of 0.45
	// where the seed-to-seed σ is 0.02.
	full, err := paperHarness(t).PrecisionVsWidth(WhySlowerDespiteSameNumInstances(), []int{3})
	if err != nil {
		t.Fatal(err)
	}
	checkBeatsBaselines(t, full, 0)
}

func TestPrecisionVsWidthTaskLevel(t *testing.T) {
	h := testHarness(t)
	tab, err := h.PrecisionVsWidth(WhyLastTaskFaster(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Figure 3(a)" {
		t.Errorf("ID = %q", tab.ID)
	}
	px := seriesByName(tab, TechPerfXplain)
	if px == nil || len(px.Mean) != 2 {
		t.Fatalf("bad series: %+v", tab.Series)
	}

	// The paper's Figure 3(a) claims, on its own log: at width 3
	// PerfXplain is at least as precise as both baselines, and its third
	// atom still pays — width 3 is strictly above width 1. Five
	// repetitions keep the 10 170-task walk affordable under -race; over
	// harness seeds 1–8 they read width 3 at 0.85–0.97 against baselines
	// at 0.43–0.50 (margin 0.35, seed-to-seed σ 0.05) and 0.28–0.57 above
	// width 1 (σ 0.10). A growth round that scores only some of its
	// candidates flattens the curve to one value at every width and fails
	// the second check; that is what this guards.
	ph := paperHarness(t)
	ph.Reps = 5
	full, err := ph.PrecisionVsWidth(WhyLastTaskFaster(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	checkBeatsBaselines(t, full, 1)
	if px = seriesByName(full, TechPerfXplain); px.Mean[1] <= px.Mean[0] {
		t.Errorf("Figure 3(a): PerfXplain width-3 precision %.3f not above width-1 %.3f", px.Mean[1], px.Mean[0])
	}
}

func TestDifferentJobLog(t *testing.T) {
	h := testHarness(t)
	tab, err := h.DifferentJobLog([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Figure 3(c)" {
		t.Errorf("ID = %q", tab.ID)
	}
	if len(tab.Series) != 3 {
		t.Errorf("series = %d", len(tab.Series))
	}
}

func TestLogSizeSweep(t *testing.T) {
	h := testHarness(t)
	tab, err := h.LogSizeSweep([]float64{0.3, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Figure 3(d)" {
		t.Errorf("ID = %q", tab.ID)
	}
	px := seriesByName(tab, TechPerfXplain)
	if px == nil || len(px.X) != 2 {
		t.Fatalf("bad series: %+v", tab.Series)
	}
}

func TestDespiteRelevance(t *testing.T) {
	h := testHarness(t)
	tab, err := h.DespiteRelevance([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Figure 4(a)" {
		t.Errorf("ID = %q", tab.ID)
	}
	if len(tab.Series) != 2 {
		t.Fatalf("want one series per query, got %d", len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Mean) != 2 {
			t.Errorf("%s: %d points", s.Name, len(s.Mean))
		}
		// Generated despite clauses should not hurt relevance vs empty.
		if s.Mean[1] < s.Mean[0]-0.15 {
			t.Errorf("%s: relevance dropped sharply %v -> %v", s.Name, s.Mean[0], s.Mean[1])
		}
	}
}

func TestTable3(t *testing.T) {
	h := testHarness(t)
	tab, err := h.Table3(3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Table 3" {
		t.Errorf("ID = %q", tab.ID)
	}
	before := seriesByName(tab, "RelevanceBefore")
	after := seriesByName(tab, "RelevanceAfter")
	if before == nil || after == nil {
		t.Fatal("missing series")
	}
	for i := range before.Mean {
		if after.Mean[i] < before.Mean[i]-0.1 {
			t.Errorf("query %d: generated despite lowered relevance %v -> %v",
				i+1, before.Mean[i], after.Mean[i])
		}
	}
}

func TestPrecisionGenerality(t *testing.T) {
	h := testHarness(t)
	tab, err := h.PrecisionGenerality([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Figure 4(b)" {
		t.Errorf("ID = %q", tab.ID)
	}
	for _, s := range tab.Series {
		for i := range s.X {
			if s.X[i] < 0 || s.X[i] > 1 || s.Mean[i] < 0 || s.Mean[i] > 1 {
				t.Errorf("%s point %d out of unit square: (%v, %v)", s.Name, i, s.X[i], s.Mean[i])
			}
		}
	}
}

func TestFeatureLevels(t *testing.T) {
	h := testHarness(t)
	tab, err := h.FeatureLevels([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Figure 4(c)" {
		t.Errorf("ID = %q", tab.ID)
	}
	if len(tab.Series) != 3 {
		t.Fatalf("want 3 level series, got %d", len(tab.Series))
	}
}

func TestExampleExplanations(t *testing.T) {
	h := testHarness(t)
	ex, err := h.ExampleExplanations(WhySlowerDespiteSameNumInstances(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range AllTechniques {
		if ex[tech] == "" {
			t.Errorf("%s produced no explanation", tech)
		}
	}
}

func TestAggregateSkipsNaN(t *testing.T) {
	rows := [][]float64{
		{0.5, nan()},
		{0.7, 0.9},
	}
	s := aggregate("x", []float64{1, 2}, rows)
	if s.Mean[0] != 0.6 {
		t.Errorf("mean[0] = %v", s.Mean[0])
	}
	if s.Mean[1] != 0.9 {
		t.Errorf("mean[1] = %v (NaN row must be skipped)", s.Mean[1])
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func TestTableRenderEmptyAndMismatched(t *testing.T) {
	empty := &Table{ID: "X", Title: "t", XLabel: "x", YLabel: "y"}
	if !strings.Contains(empty.String(), "no data") {
		t.Error("empty table should say so")
	}
	tab := &Table{
		ID: "X", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1}, Mean: []float64{0.5}, Std: []float64{0.1}},
			{Name: "b", X: []float64{2}, Mean: []float64{0.7}, Std: []float64{0}},
		},
	}
	out := tab.String()
	if !strings.Contains(out, "-") {
		t.Errorf("missing cells should render as '-':\n%s", out)
	}
}

// seriesByName returns the table's named series, or nil.
func seriesByName(t *Table, name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}
