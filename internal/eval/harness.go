package eval

import (
	"context"
	"fmt"
	"math/rand"

	"perfxplain/internal/baselines"
	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// Technique names, used as series labels.
const (
	TechPerfXplain  = "PerfXplain"
	TechRuleOfThumb = "RuleOfThumb"
	TechSimButDiff  = "SimButDiff"
)

// AllTechniques lists the three compared generators in paper order.
var AllTechniques = []string{TechPerfXplain, TechRuleOfThumb, TechSimButDiff}

// Harness runs the paper's evaluation protocol over one collected log.
type Harness struct {
	// Jobs and Tasks are the full execution logs.
	Jobs, Tasks *joblog.Log
	// Reps is the number of random split repetitions (paper: 10).
	Reps int
	// Seed drives splits, pair picking and sampling.
	Seed int64
	// MaxPairs caps pair enumeration in training and evaluation.
	MaxPairs int
	// SampleSize is PerfXplain's balanced-sample target (paper: 2000).
	SampleSize int
	// Level is the feature hierarchy level (default Level3).
	Level features.Level
	// Parallelism bounds the worker goroutines running repetitions and
	// experiment cells, and is threaded through to explanation generation
	// and evaluation (<= 0 means GOMAXPROCS). Every table is identical at
	// every setting: reps write into rep-indexed slots and aggregation
	// reads them in rep order.
	Parallelism int
}

// newExplainer builds a PerfXplain explainer over a training log on the
// given worker bound: the calling fan-out's inner parallelism (see
// innerParallelism — concurrent reps must not oversubscribe the cores).
func (h *Harness) newExplainer(train *joblog.Log, cfg core.Config, workers int) (*core.Explainer, error) {
	cfg.Exec = core.Exec{Parallelism: workers}
	return core.NewExplainer(train, cfg)
}

// NewHarness returns a harness with the paper's protocol defaults.
func NewHarness(jobs, tasks *joblog.Log, seed int64) *Harness {
	return &Harness{
		Jobs:       jobs,
		Tasks:      tasks,
		Reps:       10,
		Seed:       seed,
		MaxPairs:   120000,
		SampleSize: 2000,
		Level:      features.Level3,
	}
}

// innerParallelism is the worker bound handed to work nested inside an
// outer fan-out of the given width (reps, grid cells, techniques): the
// pool budget divided by the outer width, so nested stages soak up
// whatever the outer fan-out leaves idle instead of oversubscribing
// cores. Results are identical at any split — parallelism is never a
// semantics knob.
func (h *Harness) innerParallelism(outer int) int {
	if outer < 1 {
		outer = 1
	}
	inner := par.Resolve(h.Parallelism) / outer
	if inner < 1 {
		return 1
	}
	return inner
}

// logFor selects the log a template runs over.
func (h *Harness) logFor(t QueryTemplate) *joblog.Log {
	if t.TaskLevel {
		return h.Tasks
	}
	return h.Jobs
}

// splitJobs partitions job IDs into train/test with P(train) = frac, the
// paper's 2-fold protocol at frac = 0.5 (Section 6.1, footnote 2).
func splitJobIDs(jobs *joblog.Log, frac float64, rng *rand.Rand) (train map[string]bool) {
	train = make(map[string]bool)
	for _, r := range jobs.Records {
		if rng.Float64() < frac {
			train[r.ID] = true
		}
	}
	return train
}

// split produces train/test views of the template's log. Task records
// follow their job's assignment so a job's tasks never straddle the
// split.
func (h *Harness) split(t QueryTemplate, frac float64, rng *rand.Rand) (train, test *joblog.Log) {
	trainJobs := splitJobIDs(h.Jobs, frac, rng)
	log := h.logFor(t)
	inTrain := func(r *joblog.Record) bool {
		if t.TaskLevel {
			v := log.Value(r, "jobid")
			return v.Kind == joblog.Nominal && trainJobs[v.Str]
		}
		return trainJobs[r.ID]
	}
	return log.Filter(inTrain), log.Filter(func(r *joblog.Record) bool { return !inTrain(r) })
}

// pickPair binds a pair of interest from the log: among pairs satisfying
// the query's despite and observed clauses (and the template's scenario
// filter), it picks the most salient one — the largest duration gap.
// This mirrors the paper's protocol: the user asks about one conspicuous
// pair they noticed, fixed across repetitions, not a random borderline
// case whose 10%-band membership is a coin flip.
func (h *Harness) pickPair(log *joblog.Log, t QueryTemplate, q *pxql.Query, rng *rand.Rand, workers int) error {
	related := core.RelatedPairsP(log, h.Level, q, h.MaxPairs, rng.Int63(), workers)
	var best core.LabeledPair
	bestGap := -1.0
	for _, p := range related {
		if !p.Observed {
			continue
		}
		if t.PairFilter != nil && !t.PairFilter(log, p.A, p.B) {
			continue
		}
		d1 := log.Value(p.A, "duration")
		d2 := log.Value(p.B, "duration")
		if d1.Kind != joblog.Numeric || d2.Kind != joblog.Numeric || d1.Num <= 0 || d2.Num <= 0 {
			continue
		}
		gap := d1.Num / d2.Num
		if gap < 1 {
			gap = 1 / gap
		}
		if gap > bestGap {
			bestGap = gap
			best = p
		}
	}
	if bestGap < 0 {
		return fmt.Errorf("eval: no pair of interest satisfies the query in this split")
	}
	q.ID1, q.ID2 = best.A.ID, best.B.ID
	return nil
}

// explainFull generates one maximum-width explanation per technique.
// Greedy construction is prefix-stable, so width-w results are prefixes
// of the width-maxW clause; experiments evaluate prefixes instead of
// re-running the generator per width.
func (h *Harness) explainFull(tech string, train *joblog.Log, q *pxql.Query,
	maxW int, seed int64, level features.Level, genDespite bool, workers int) (*core.Explanation, error) {

	switch tech {
	case TechPerfXplain:
		ex, err := h.newExplainer(train, core.Config{
			Width:        maxW,
			DespiteWidth: maxW,
			SampleSize:   h.SampleSize,
			Level:        level,
			MaxPairs:     h.MaxPairs,
			Seed:         seed,
		}, workers)
		if err != nil {
			return nil, err
		}
		if genDespite {
			return ex.ExplainWithDespite(context.Background(), q)
		}
		return ex.Explain(context.Background(), q)
	case TechRuleOfThumb:
		rot, err := baselines.NewRuleOfThumb(train, "duration", seed)
		if err != nil {
			return nil, err
		}
		return rot.Explain(q, maxW)
	case TechSimButDiff:
		sbd, err := baselines.NewSimButDiff(train, baselines.SimButDiffConfig{
			MaxPairs:    h.MaxPairs,
			Seed:        seed,
			Parallelism: workers,
		})
		if err != nil {
			return nil, err
		}
		return sbd.Explain(q, maxW)
	default:
		return nil, fmt.Errorf("eval: unknown technique %q", tech)
	}
}

// prefix returns the width-w prefix of an explanation's because clause.
func prefix(x *core.Explanation, w int) *core.Explanation {
	bec := x.Because
	if w < len(bec) {
		bec = bec[:w]
	}
	return &core.Explanation{Despite: x.Despite, Because: bec}
}

// aggregate converts per-rep measurements (rows) into a mean/std series
// over the x positions.
func aggregate(name string, xs []float64, rows [][]float64) Series {
	s := Series{Name: name, X: xs}
	for i := range xs {
		var col []float64
		for _, row := range rows {
			if i < len(row) && !isNaN(row[i]) {
				col = append(col, row[i])
			}
		}
		s.Mean = append(s.Mean, stats.Mean(col))
		s.Std = append(s.Std, stats.StdDev(col))
	}
	return s
}

func isNaN(x float64) bool { return x != x }
