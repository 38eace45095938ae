package perfxplain

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, each regenerating its artifact from a fresh
// simulated Table 2 log and reporting the headline quantities as custom
// benchmark metrics, plus ablation benchmarks for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Reported metrics are probabilities (precision/relevance/generality), so
// e.g. `px_prec_w3` is PerfXplain's mean width-3 precision on the
// held-out log.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"perfxplain/internal/collect"
	"perfxplain/internal/core"
	"perfxplain/internal/eval"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/stats"
)

// benchLogs collects the full Table 2 sweep once for all benchmarks.
var (
	benchOnce sync.Once
	benchRes  *collect.Result
	benchErr  error
)

func benchHarness(b *testing.B, reps int) *eval.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = collect.DefaultSweep(42).Collect()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	h := eval.NewHarness(benchRes.Jobs, benchRes.Tasks, 7)
	h.Reps = reps
	return h
}

func reportSeries(b *testing.B, tab *eval.Table, metricFor func(seriesName string) string, atX float64) {
	for _, s := range tab.Series {
		name := metricFor(s.Name)
		if name == "" {
			continue
		}
		for i, x := range s.X {
			if x == atX {
				b.ReportMetric(s.Mean[i], name)
			}
		}
	}
}

func techMetric(prefix string) func(string) string {
	return func(series string) string {
		switch series {
		case eval.TechPerfXplain:
			return "px_" + prefix
		case eval.TechRuleOfThumb:
			return "rot_" + prefix
		case eval.TechSimButDiff:
			return "sbd_" + prefix
		}
		return ""
	}
}

// BenchmarkFig3aWhyLastTaskFaster regenerates Figure 3(a): precision vs
// width for the task-level query, three techniques.
func BenchmarkFig3aWhyLastTaskFaster(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.PrecisionVsWidth(eval.WhyLastTaskFaster(), []int{0, 1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, tab, techMetric("prec_w3"), 3)
		}
	}
}

// BenchmarkFig3bWhySlower regenerates Figure 3(b): precision vs width for
// the job-level query. The paper's headline: PerfXplain at width 3 beats
// both baselines by at least 40.5%.
func BenchmarkFig3bWhySlower(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.PrecisionVsWidth(eval.WhySlowerDespiteSameNumInstances(), []int{0, 1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, tab, techMetric("prec_w3"), 3)
		}
	}
}

// BenchmarkFig3cDifferentJob regenerates Figure 3(c): training on
// simple-groupby jobs only, evaluating on simple-filter jobs.
func BenchmarkFig3cDifferentJob(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.DifferentJobLog([]int{0, 1, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, tab, techMetric("prec_w3"), 3)
		}
	}
}

// BenchmarkFig3dLogSize regenerates Figure 3(d): width-3 precision vs
// training-log fraction.
func BenchmarkFig3dLogSize(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.LogSizeSweep([]float64{0.1, 0.3, 0.5}, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, tab, techMetric("prec_f10"), 0.1)
		}
	}
}

// BenchmarkFig4aDespiteRelevance regenerates Figure 4(a): relevance of
// generated despite clauses vs width for both queries.
func BenchmarkFig4aDespiteRelevance(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.DespiteRelevance([]int{0, 1, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range tab.Series {
				for j, x := range s.X {
					if x == 3 {
						b.ReportMetric(s.Mean[j], "rel_w3_"+shortQuery(s.Name))
					}
				}
			}
		}
	}
}

func shortQuery(name string) string {
	if strings.HasPrefix(name, "WhyLastTaskFaster") {
		return "q1"
	}
	return "q2"
}

// BenchmarkFig4bPrecGen regenerates Figure 4(b): the precision/generality
// trade-off points per technique.
func BenchmarkFig4bPrecGen(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.PrecisionGenerality([]int{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range tab.Series {
				if len(s.Mean) == 0 {
					continue
				}
				last := len(s.Mean) - 1
				m := techMetric("prec_w5")(s.Name)
				g := techMetric("gen_w5")(s.Name)
				if m != "" {
					b.ReportMetric(s.Mean[last], m)
					b.ReportMetric(s.X[last], g)
				}
			}
		}
	}
}

// BenchmarkFig4cFeatureLevels regenerates Figure 4(c): precision at
// feature levels 1-3.
func BenchmarkFig4cFeatureLevels(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.FeatureLevels([]int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range tab.Series {
				for j, x := range s.X {
					if x == 3 {
						b.ReportMetric(s.Mean[j], "prec_w3_"+s.Name)
					}
				}
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3: relevance with empty vs generated
// despite clauses for both queries.
func BenchmarkTable3(b *testing.B) {
	h := benchHarness(b, 3)
	for i := 0; i < b.N; i++ {
		tab, err := h.Table3(3)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range tab.Series {
				for j, x := range s.X {
					b.ReportMetric(s.Mean[j], fmt.Sprintf("%s_q%d", seriesShort(s.Name), int(x)))
				}
			}
		}
	}
}

func seriesShort(name string) string {
	if name == "RelevanceBefore" {
		return "rel_before"
	}
	return "rel_after"
}

// --- Ablation benchmarks (DESIGN.md Section 5) -------------------------

// ablationPrecision runs PerfXplain on the WhySlower query under a
// modified core configuration and returns mean width-3 held-out
// precision over a few splits.
func ablationPrecision(b *testing.B, mutate func(*core.Config)) float64 {
	b.Helper()
	benchHarness(b, 3) // ensures benchRes is populated
	t := eval.WhySlowerDespiteSameNumInstances()
	var precs []float64
	for rep := int64(0); rep < 3; rep++ {
		rng := stats.DeriveRand(900+rep, "ablation")
		jobs := benchRes.Jobs
		trainIDs := make(map[string]bool)
		for _, id := range recordIDs(jobs) {
			if rng.Float64() < 0.5 {
				trainIDs[id] = true
			}
		}
		train := jobs.Filter(func(r *joblog.Record) bool { return trainIDs[r.ID] })
		test := jobs.Filter(func(r *joblog.Record) bool { return !trainIDs[r.ID] })
		q, err := t.Query()
		if err != nil {
			b.Fatal(err)
		}
		pairs := core.RelatedPairsP(train, features.Level3, q, 50000, rep, 0)
		bound := false
		for _, p := range pairs {
			if p.Observed {
				q.ID1, q.ID2 = p.A.ID, p.B.ID
				bound = true
				break
			}
		}
		if !bound {
			continue
		}
		cfg := core.Config{Width: 3, Seed: rep, MaxPairs: 50000}
		mutate(&cfg)
		ex, err := core.NewExplainer(train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		x, err := ex.Explain(context.Background(), q)
		if err != nil {
			continue
		}
		m, err := core.EvaluateExplanation(context.Background(), test, features.Level3, q, x, 50000, rep, core.Exec{})
		if err != nil {
			continue
		}
		precs = append(precs, m.Precision)
	}
	return stats.Mean(precs)
}

func recordIDs(l *joblog.Log) []string {
	out := make([]string, 0, l.Len())
	for _, r := range l.Records {
		out = append(out, r.ID)
	}
	return out
}

// BenchmarkAblationRawScores compares the paper's percentile-rank score
// normalisation (Section 4.2) against raw precision/generality blending.
func BenchmarkAblationRawScores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		normalized := ablationPrecision(b, func(c *core.Config) {})
		raw := ablationPrecision(b, func(c *core.Config) { c.RawScores = true })
		if i == b.N-1 {
			b.ReportMetric(normalized, "prec_normalized")
			b.ReportMetric(raw, "prec_rawscores")
		}
	}
}

// BenchmarkAblationUnbalanced compares the paper's class-balanced sampler
// (Section 4.3) against uniform sampling.
func BenchmarkAblationUnbalanced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		balanced := ablationPrecision(b, func(c *core.Config) {})
		uniform := ablationPrecision(b, func(c *core.Config) { c.UnbalancedSample = true })
		if i == b.N-1 {
			b.ReportMetric(balanced, "prec_balanced")
			b.ReportMetric(uniform, "prec_uniform")
		}
	}
}

// BenchmarkExplainLatency measures raw explanation-generation latency on
// the full 540-job log — the interactive-use cost the paper's sampling
// bounds (Section 4.3).
func BenchmarkExplainLatency(b *testing.B) {
	benchHarness(b, 3)
	t := eval.WhySlowerDespiteSameNumInstances()
	q, err := t.Query()
	if err != nil {
		b.Fatal(err)
	}
	pairs := core.RelatedPairsP(benchRes.Jobs, features.Level3, q, 50000, 1, 0)
	for _, p := range pairs {
		if p.Observed {
			q.ID1, q.ID2 = p.A.ID, p.B.ID
			break
		}
	}
	ex, err := core.NewExplainer(benchRes.Jobs, core.Config{Width: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Explain(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelismAblation tracks the serial-vs-parallel speedup of
// the explanation pipeline: the same workload at Parallelism 1, 2, 4 and
// GOMAXPROCS. Output is byte-identical across the variants (asserted by
// the determinism tests), so any delta is pure throughput. Two scopes:
// "explain" is a single end-to-end core explanation on the full 540-job
// log; "table3" is the harness regenerating Table 3 (reps, despite
// generation and held-out evaluation all on the worker pool).
func BenchmarkParallelismAblation(b *testing.B) {
	benchHarness(b, 3)
	t := eval.WhySlowerDespiteSameNumInstances()
	q, err := t.Query()
	if err != nil {
		b.Fatal(err)
	}
	pairs := core.RelatedPairsP(benchRes.Jobs, features.Level3, q, 50000, 1, 0)
	for _, p := range pairs {
		if p.Observed {
			q.ID1, q.ID2 = p.A.ID, p.B.ID
			break
		}
	}
	levels := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, p := range levels {
		b.Run(fmt.Sprintf("explain/p%d", p), func(b *testing.B) {
			ex, err := core.NewExplainer(benchRes.Jobs, core.Config{Width: 3, Seed: 1, Exec: core.Exec{Parallelism: p}})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := ex.Explain(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, p := range levels {
		b.Run(fmt.Sprintf("table3/p%d", p), func(b *testing.B) {
			h := benchHarness(b, 3)
			h.Parallelism = p
			for i := 0; i < b.N; i++ {
				if _, err := h.Table3(3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectSweep measures the substrate: simulating and logging
// the full 540-job Table 2 sweep.
func BenchmarkCollectSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := collect.DefaultSweep(int64(i)).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}
