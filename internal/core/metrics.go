package core

import (
	"context"
	"fmt"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// Metrics are the paper's three explanation-quality measures
// (Definitions 4-6), evaluated over a log — typically a held-out test log
// as in Section 6.1.
type Metrics struct {
	// Relevance is P(exp | des' ∧ des).
	Relevance float64
	// Precision is P(obs | bec ∧ des' ∧ des).
	Precision float64
	// Generality is P(bec | des' ∧ des).
	Generality float64

	// ContextPairs counts pairs satisfying des' ∧ des (the denominator of
	// relevance and generality).
	ContextPairs int
	// BecausePairs counts pairs additionally satisfying bec (the
	// denominator of precision).
	BecausePairs int
}

// EvaluateExplanation measures an explanation against a log. The query
// supplies des, obs and exp; the explanation supplies des' and bec. The
// probability space is the set of ordered pairs satisfying des ∧ des'
// (blocked and capped exactly like training enumeration). The quadratic
// walk is cut into evaluation specs (PlanEvalShards) and executed per ex
// — on this process's cores, or on ex.Runner's workers for logs that
// exceed one box; spec results are integer counts summed in spec order,
// so the metrics are exact and identical at every parallelism, spec
// count, transport and cache state.
//
// Locally each worker checks ctx before starting a spec; with a Runner
// ctx is checked before the fan-out (the runner round is the unit of
// work). A cancelled evaluation returns ctx.Err() instead of partial
// counts; a result returned without error is exact.
func EvaluateExplanation(ctx context.Context, log *joblog.Log, level features.Level,
	q *pxql.Query, x *Explanation, maxPairs int, seed int64, ex Exec) (Metrics, error) {

	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	if err := validateEvaluation(log, level, q, x); err != nil {
		return Metrics{}, err
	}
	if err := ex.check(log); err != nil {
		return Metrics{}, err
	}
	// Repeated evaluations over one log (a harness scoring several
	// widths) hit the worker caches whatever the dynamic task-to-worker
	// assignment does.
	ex.prefetch()
	specs := PlanEvalShards(ex.Layout, log, level, q, x, maxPairs, ex.shards(), stats.DeriveSeed(seed, "evaluate"))
	results, err := runSpecs(ctx, ex, log, "evaluation", specs, (*EvalSpec).RunWith, ShardRunner.RunEval)
	if err != nil {
		return Metrics{}, err
	}
	var context, nExp, bec, obsGivenBec int
	for si := range results {
		r := &results[si]
		if r.Context < 0 || r.Exp < 0 || r.Bec < 0 || r.ObsGivenBec < 0 ||
			r.Exp > r.Context || r.Bec > r.Context || r.ObsGivenBec > r.Bec {
			return Metrics{}, fmt.Errorf("core: shard %d returned inconsistent evaluation counts %+v", si, *r)
		}
		context += r.Context
		nExp += r.Exp
		bec += r.Bec
		obsGivenBec += r.ObsGivenBec
	}
	return metricsFromCounts(context, nExp, bec, obsGivenBec)
}

// validateEvaluation checks the evaluation inputs before any planning.
func validateEvaluation(log *joblog.Log, level features.Level, q *pxql.Query, x *Explanation) error {
	if log == nil || log.Len() == 0 {
		return fmt.Errorf("core: empty evaluation log")
	}
	d := features.NewDeriver(log.Schema, level)
	for _, p := range []pxql.Predicate{q.Despite, q.Observed, q.Expected, x.Despite, x.Because} {
		if err := p.Validate(d.Schema()); err != nil {
			return err
		}
	}
	return nil
}

// metricsFromCounts turns the four merged counts into the paper's
// measures — the single definition of the ratios, shared by every
// execution mode.
func metricsFromCounts(context, exp, bec, obsGivenBec int) (Metrics, error) {
	m := Metrics{ContextPairs: context, BecausePairs: bec}
	if m.ContextPairs == 0 {
		return m, fmt.Errorf("core: no pairs satisfy the despite context in the evaluation log")
	}
	m.Relevance = float64(exp) / float64(m.ContextPairs)
	m.Generality = float64(m.BecausePairs) / float64(m.ContextPairs)
	if m.BecausePairs > 0 {
		m.Precision = float64(obsGivenBec) / float64(m.BecausePairs)
	}
	return m, nil
}
