package eval

import (
	"context"
	"fmt"
	"math"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// DefaultWidths are the x positions of the paper's width sweeps.
var DefaultWidths = []int{0, 1, 2, 3, 4, 5}

// evaluate measures an explanation on the test log with the harness's
// protocol settings, on the given worker bound. The walk is exact
// whoever executes it — spec counts sum to the same totals — so tables
// are byte-identical with and without a runner.
func (h *Harness) evaluate(test *joblog.Log, q *pxql.Query, x *core.Explanation, seed int64, workers int) (core.Metrics, error) {
	return core.EvaluateExplanation(context.Background(), test, features.Level3, q, x, h.MaxPairs, seed, h.exec(test, workers))
}

// repRows allocates one result row per repetition for each technique;
// skipped reps stay nil and drop out of aggregation, so concurrent reps
// write disjoint slots while row order stays the rep order.
func (h *Harness) repRows() map[string][][]float64 {
	rows := make(map[string][][]float64, len(AllTechniques))
	for _, tech := range AllTechniques {
		rows[tech] = make([][]float64, h.Reps)
	}
	return rows
}

// PrecisionVsWidth reproduces Figures 3(a) and 3(b): mean explanation
// precision on the held-out log as a function of explanation width, for
// all three techniques.
func (h *Harness) PrecisionVsWidth(t QueryTemplate, widths []int) (*Table, error) {
	rows := h.repRows()
	maxW := maxInt(widths)
	inner := h.innerParallelism(h.Reps)
	err := h.forEachRep(t, func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64) {
		for _, tech := range AllTechniques {
			row := nanRow(len(widths))
			x, err := h.explainFull(tech, train, q, maxW, seed, h.Level, false, inner)
			if err == nil {
				for wi, w := range widths {
					m, merr := h.evaluate(test, q, prefix(x, w), seed, inner)
					if merr == nil {
						row[wi] = m.Precision
					}
				}
			}
			rows[tech][rep] = row
		}
	})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     figureFor(t),
		Title:  "explanation precision vs width — " + t.Name,
		XLabel: "width",
		YLabel: "precision",
	}
	for _, tech := range AllTechniques {
		tab.Series = append(tab.Series, aggregate(tech, intsToF(widths), rows[tech]))
	}
	return tab, nil
}

func figureFor(t QueryTemplate) string {
	if t.TaskLevel {
		return "Figure 3(a)"
	}
	return "Figure 3(b)"
}

// DifferentJobLog reproduces Figure 3(c): the training log holds only
// simple-groupby jobs (plus the pair of interest, which runs
// simple-filter), and precision is evaluated over the simple-filter jobs.
func (h *Harness) DifferentJobLog(widths []int) (*Table, error) {
	t := WhySlowerDespiteSameNumInstances()
	maxW := maxInt(widths)
	filterJobs := h.Jobs.Filter(func(r *joblog.Record) bool {
		return h.Jobs.Value(r, "pigscript") == joblog.Str("simple-filter.pig")
	})
	groupbyJobs := h.Jobs.Filter(func(r *joblog.Record) bool {
		return h.Jobs.Value(r, "pigscript") == joblog.Str("simple-groupby.pig")
	})
	if filterJobs.Len() == 0 || groupbyJobs.Len() == 0 {
		return nil, fmt.Errorf("eval: log lacks one of the two scripts")
	}

	if _, err := t.Query(); err != nil {
		return nil, err
	}
	rows := h.repRows()
	inner := h.innerParallelism(h.Reps)
	par.Do(h.Reps, h.Parallelism, func(rep int) {
		rng := stats.DeriveRand(h.Seed, fmt.Sprintf("fig3c-rep-%d", rep))
		q, _ := t.Query()
		if err := h.pickPair(filterJobs, t, q, rng, inner); err != nil {
			return
		}
		// Training log: the groupby jobs plus the pair of interest.
		train := joblog.NewLog(h.Jobs.Schema)
		train.Records = append(train.Records, groupbyJobs.Records...)
		train.Records = append(train.Records, filterJobs.Find(q.ID1), filterJobs.Find(q.ID2))
		seed := rng.Int63()
		for _, tech := range AllTechniques {
			row := nanRow(len(widths))
			x, err := h.explainFull(tech, train, q, maxW, seed, h.Level, false, inner)
			if err == nil {
				for wi, w := range widths {
					m, merr := h.evaluate(filterJobs, q, prefix(x, w), seed, inner)
					if merr == nil {
						row[wi] = m.Precision
					}
				}
			}
			rows[tech][rep] = row
		}
	})
	tab := &Table{
		ID:     "Figure 3(c)",
		Title:  "precision when training on simple-groupby jobs only — " + t.Name,
		XLabel: "width",
		YLabel: "precision",
	}
	for _, tech := range AllTechniques {
		tab.Series = append(tab.Series, aggregate(tech, intsToF(widths), rows[tech]))
	}
	return tab, nil
}

// LogSizeSweep reproduces Figure 3(d): width-3 precision as the training
// log shrinks from 50% to 10% of the jobs, evaluated on the remainder.
// Every (repetition, fraction) cell derives its own RNG stream, so the
// full grid fans out over the worker pool; each cell writes one disjoint
// element of its rep's row.
func (h *Harness) LogSizeSweep(fracs []float64, width int) (*Table, error) {
	t := WhySlowerDespiteSameNumInstances()
	if _, err := t.Query(); err != nil {
		return nil, err
	}
	rows := h.repRows()
	for _, tech := range AllTechniques {
		for rep := 0; rep < h.Reps; rep++ {
			rows[tech][rep] = nanRow(len(fracs))
		}
	}
	inner := h.innerParallelism(h.Reps * len(fracs))
	par.Do(h.Reps*len(fracs), h.Parallelism, func(cell int) {
		rep, fi := cell/len(fracs), cell%len(fracs)
		frac := fracs[fi]
		rng := stats.DeriveRand(h.Seed, fmt.Sprintf("fig3d-rep-%d-frac-%d", rep, fi))
		train, test := h.split(t, frac, rng)
		q, _ := t.Query()
		if err := h.pickPair(train, t, q, rng, inner); err != nil {
			return
		}
		seed := rng.Int63()
		for _, tech := range AllTechniques {
			x, err := h.explainFull(tech, train, q, width, seed, h.Level, false, inner)
			if err != nil {
				continue
			}
			m, merr := h.evaluate(test, q, prefix(x, width), seed, inner)
			if merr == nil {
				rows[tech][rep][fi] = m.Precision
			}
		}
	})
	tab := &Table{
		ID:     "Figure 3(d)",
		Title:  fmt.Sprintf("width-%d precision vs training-log fraction — %s", width, t.Name),
		XLabel: "fraction of log",
		YLabel: "precision",
	}
	for _, tech := range AllTechniques {
		tab.Series = append(tab.Series, aggregate(tech, fracs, rows[tech]))
	}
	return tab, nil
}

// DespiteRelevance reproduces Figure 4(a): relevance of PerfXplain's
// generated despite clauses as a function of despite width, for both
// queries with their user despite clauses removed.
func (h *Harness) DespiteRelevance(widths []int) (*Table, error) {
	tab := &Table{
		ID:     "Figure 4(a)",
		Title:  "relevance of generated despite clauses vs width",
		XLabel: "despite width",
		YLabel: "relevance",
	}
	maxW := maxInt(widths)
	inner := h.innerParallelism(h.Reps)
	for _, base := range Templates() {
		rows := make([][]float64, h.Reps)
		err := h.forEachRepStripped(base, func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64) {
			row := nanRow(len(widths))
			ex, err := h.newExplainer(train, core.Config{
				DespiteWidth: maxW,
				SampleSize:   h.SampleSize,
				MaxPairs:     h.MaxPairs,
				Seed:         seed,
			}, inner)
			if err == nil {
				des, derr := ex.GenerateDespite(context.Background(), q)
				if derr == nil {
					for wi, w := range widths {
						d := des
						if w < len(d) {
							d = d[:w]
						}
						m, merr := h.evaluate(test, q, &core.Explanation{Despite: d}, seed, inner)
						if merr == nil {
							row[wi] = m.Relevance
						}
					}
				}
			}
			rows[rep] = row
		})
		if err != nil {
			return nil, err
		}
		tab.Series = append(tab.Series, aggregate(base.Name, intsToF(widths), rows))
	}
	return tab, nil
}

// Table3 reproduces the paper's Table 3: mean relevance with an empty
// despite clause versus with a width-3 generated despite clause, for both
// queries.
func (h *Harness) Table3(despiteWidth int) (*Table, error) {
	tab := &Table{
		ID:     "Table 3",
		Title:  "relevance before/after generated despite clause",
		XLabel: "query",
		YLabel: "relevance",
	}
	var before, after [][]float64
	inner := h.innerParallelism(h.Reps)
	for qi, base := range Templates() {
		bByRep, aByRep := nanRow(h.Reps), nanRow(h.Reps)
		err := h.forEachRepStripped(base, func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64) {
			mB, err := h.evaluate(test, q, &core.Explanation{}, seed, inner)
			if err != nil {
				return
			}
			ex, err := h.newExplainer(train, core.Config{
				DespiteWidth: despiteWidth,
				SampleSize:   h.SampleSize,
				MaxPairs:     h.MaxPairs,
				Seed:         seed,
			}, inner)
			if err != nil {
				return
			}
			des, err := ex.GenerateDespite(context.Background(), q)
			if err != nil {
				return
			}
			mA, err := h.evaluate(test, q, &core.Explanation{Despite: des}, seed, inner)
			if err != nil {
				return
			}
			bByRep[rep] = mB.Relevance
			aByRep[rep] = mA.Relevance
		})
		if err != nil {
			return nil, err
		}
		// Compact in rep order, dropping skipped reps.
		var b, a []float64
		for rep := 0; rep < h.Reps; rep++ {
			if !isNaN(bByRep[rep]) && !isNaN(aByRep[rep]) {
				b = append(b, bByRep[rep])
				a = append(a, aByRep[rep])
			}
		}
		x := float64(qi + 1)
		before = append(before, []float64{x, stats.Mean(b), stats.StdDev(b)})
		after = append(after, []float64{x, stats.Mean(a), stats.StdDev(a)})
	}
	mkSeries := func(name string, rows [][]float64) Series {
		s := Series{Name: name}
		for _, r := range rows {
			s.X = append(s.X, r[0])
			s.Mean = append(s.Mean, r[1])
			s.Std = append(s.Std, r[2])
		}
		return s
	}
	tab.Series = []Series{
		mkSeries("RelevanceBefore", before),
		mkSeries("RelevanceAfter", after),
	}
	return tab, nil
}

// PrecisionGenerality reproduces Figure 4(b): precision and generality of
// explanations at widths 1..5 per technique; each series carries mean
// generality as X and mean precision as Y so points plot directly.
func (h *Harness) PrecisionGenerality(widths []int) (*Table, error) {
	t := WhySlowerDespiteSameNumInstances()
	maxW := maxInt(widths)
	// cells[tech][wi][rep] holds one (generality, precision) measurement;
	// reps fill disjoint slots and are read back in rep order.
	type cell struct {
		gen, prec float64
		ok        bool
	}
	cells := map[string][][]cell{}
	for _, tech := range AllTechniques {
		cells[tech] = make([][]cell, len(widths))
		for wi := range widths {
			cells[tech][wi] = make([]cell, h.Reps)
		}
	}
	inner := h.innerParallelism(h.Reps)
	err := h.forEachRep(t, func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64) {
		for _, tech := range AllTechniques {
			x, err := h.explainFull(tech, train, q, maxW, seed, h.Level, false, inner)
			if err != nil {
				continue
			}
			for wi, w := range widths {
				m, merr := h.evaluate(test, q, prefix(x, w), seed, inner)
				if merr != nil {
					continue
				}
				cells[tech][wi][rep] = cell{gen: m.Generality, prec: m.Precision, ok: true}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "Figure 4(b)",
		Title:  "precision vs generality trade-off — " + t.Name,
		XLabel: "generality",
		YLabel: "precision",
	}
	for _, tech := range AllTechniques {
		s := Series{Name: tech}
		for wi := range widths {
			var gens, precs []float64
			for rep := 0; rep < h.Reps; rep++ {
				if c := cells[tech][wi][rep]; c.ok {
					gens = append(gens, c.gen)
					precs = append(precs, c.prec)
				}
			}
			if len(gens) == 0 {
				continue
			}
			s.X = append(s.X, round3(stats.Mean(gens)))
			s.Mean = append(s.Mean, stats.Mean(precs))
			s.Std = append(s.Std, stats.StdDev(precs))
		}
		tab.Series = append(tab.Series, s)
	}
	return tab, nil
}

// FeatureLevels reproduces Figure 4(c): PerfXplain precision vs width
// when explanations are restricted to feature levels 1, 2 and 3.
func (h *Harness) FeatureLevels(widths []int) (*Table, error) {
	t := WhySlowerDespiteSameNumInstances()
	maxW := maxInt(widths)
	levels := []features.Level{features.Level1, features.Level2, features.Level3}
	rows := map[features.Level][][]float64{}
	for _, lv := range levels {
		rows[lv] = make([][]float64, h.Reps)
	}
	inner := h.innerParallelism(h.Reps)
	err := h.forEachRep(t, func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64) {
		for _, lv := range levels {
			row := nanRow(len(widths))
			x, err := h.explainFull(TechPerfXplain, train, q, maxW, seed, lv, false, inner)
			if err == nil {
				for wi, w := range widths {
					m, merr := h.evaluate(test, q, prefix(x, w), seed, inner)
					if merr == nil {
						row[wi] = m.Precision
					}
				}
			}
			rows[lv][rep] = row
		}
	})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "Figure 4(c)",
		Title:  "precision by feature level — " + t.Name,
		XLabel: "width",
		YLabel: "precision",
	}
	for _, lv := range levels {
		tab.Series = append(tab.Series, aggregate(fmt.Sprintf("FeatureLevel%d", lv), intsToF(widths), rows[lv]))
	}
	return tab, nil
}

// ExampleExplanations trains each technique on the full log and returns
// its width-3 clause for the query, the qualitative comparison of
// Section 6.3.
func (h *Harness) ExampleExplanations(t QueryTemplate, width int) (map[string]string, error) {
	log := h.logFor(t)
	q, err := t.Query()
	if err != nil {
		return nil, err
	}
	rng := stats.DeriveRand(h.Seed, "examples-"+t.Name)
	if err := h.pickPair(log, t, q, rng, h.Parallelism); err != nil {
		return nil, err
	}
	seed := rng.Int63()
	results := make([]string, len(AllTechniques))
	inner := h.innerParallelism(len(AllTechniques))
	par.Do(len(AllTechniques), h.Parallelism, func(ti int) {
		x, err := h.explainFull(AllTechniques[ti], log, q, width, seed, h.Level, false, inner)
		if err != nil {
			results[ti] = "(error: " + err.Error() + ")"
			return
		}
		results[ti] = prefix(x, width).Because.String()
	})
	out := make(map[string]string, len(AllTechniques))
	for ti, tech := range AllTechniques {
		out[tech] = results[ti]
	}
	return out, nil
}

// forEachRep runs the standard protocol: Reps random 50/50 splits, a pair
// of interest bound from the training log, and the callback per rep.
// Repetitions where no pair of interest exists are skipped, mirroring the
// paper's use of splits that contain query-satisfying pairs.
//
// Repetitions are independent — each derives its own RNG stream from the
// harness seed — so they run concurrently on the worker pool. fn is
// therefore invoked from multiple goroutines (for distinct reps) and
// must write only into rep-indexed storage.
func (h *Harness) forEachRep(t QueryTemplate,
	fn func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64)) error {

	if _, err := t.Query(); err != nil {
		return err
	}
	ran := make([]bool, h.Reps)
	inner := h.innerParallelism(h.Reps)
	par.Do(h.Reps, h.Parallelism, func(rep int) {
		rng := stats.DeriveRand(h.Seed, fmt.Sprintf("%s-rep-%d", t.Name, rep))
		train, test := h.split(t, 0.5, rng)
		q, _ := t.Query()
		if err := h.pickPair(train, t, q, rng, inner); err != nil {
			return
		}
		fn(rep, train, test, q, rng.Int63())
		ran[rep] = true
	})
	for _, ok := range ran {
		if ok {
			return nil
		}
	}
	return fmt.Errorf("eval: no repetition of %s found a pair of interest", t.Name)
}

// forEachRepStripped is forEachRep for the under-specified experiments of
// Section 6.4: the pair of interest is chosen exactly as for the
// well-specified query (the paper keeps the same queries and only removes
// the despite clause), and the callback receives the query with its
// despite clause stripped.
func (h *Harness) forEachRepStripped(base QueryTemplate,
	fn func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64)) error {

	return h.forEachRep(base, func(rep int, train, test *joblog.Log, q *pxql.Query, seed int64) {
		stripped := *q
		stripped.Despite = nil
		fn(rep, train, test, &stripped, seed)
	})
}

func nanRow(n int) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = math.NaN()
	}
	return row
}

func intsToF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }
