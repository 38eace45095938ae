package core

// This file implements the extensions the paper describes but leaves out
// of its main algorithm:
//
//   - Section 4.2's "easy modification": a relevance threshold r — when
//     the user's despite clause scores below r, PerfXplain extends it
//     automatically until the threshold is reached or no further
//     improvement is possible.
//   - The conclusion's observation that the approach applies to any
//     performance metric: Config.Target already parameterises the metric;
//     TargetQuery builds the obs/exp clauses for an arbitrary numeric
//     target.

import (
	"context"
	"fmt"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// DespiteToThreshold generates the shortest despite extension whose
// training relevance P(exp | des ∧ des') reaches the threshold r, up to
// the configured despite width (Section 4.2's relevance-threshold
// modification). It returns the clause, the relevance it achieves, and
// whether the threshold was met. The full-width clause is returned when
// even it falls short, so callers still get PerfXplain's best effort.
// Each prefix's relevance measurement is a cancellation checkpoint.
func (e *Explainer) DespiteToThreshold(ctx context.Context, q *pxql.Query, r float64) (des pxql.Predicate, achieved float64, met bool, err error) {
	if r < 0 || r > 1 {
		return nil, 0, false, fmt.Errorf("core: relevance threshold %v outside [0,1]", r)
	}
	full, err := e.GenerateDespite(ctx, q)
	if err != nil {
		return nil, 0, false, err
	}
	pairSeed := stats.DeriveSeed(e.cfg.Seed, "despite-threshold")
	for w := 0; w <= len(full); w++ {
		prefix := full[:w]
		rel, err := e.trainRelevance(ctx, q, q.Despite.And(prefix), pairSeed)
		if err != nil {
			return nil, 0, false, err
		}
		if rel >= r {
			return prefix, rel, true, nil
		}
		achieved = rel
		des = prefix
	}
	return des, achieved, false, nil
}

// trainRelevance measures P(exp | despite) over the log's related pairs.
func (e *Explainer) trainRelevance(ctx context.Context, q *pxql.Query, despite pxql.Predicate, pairSeed uint64) (float64, error) {
	nObs, nExp, err := e.relatedCounts(ctx, q, despite, pairSeed)
	if err != nil || nObs+nExp == 0 {
		return 0, err
	}
	return 1 - float64(nObs)/float64(nObs+nExp), nil
}

// TargetQuery builds the (observed, expected) clause pair for an
// arbitrary numeric target metric — the conclusion's "other performance
// metrics" generalisation. observed is `<target>_compare = <obsCode>`,
// expected is `<target>_compare = <expCode>`, where codes are LT, SIM or
// GT.
func TargetQuery(target, obsCode, expCode string) (*pxql.Query, error) {
	valid := map[string]bool{"LT": true, "SIM": true, "GT": true}
	if !valid[obsCode] || !valid[expCode] {
		return nil, fmt.Errorf("core: comparison codes must be LT, SIM or GT (got %q, %q)", obsCode, expCode)
	}
	if obsCode == expCode {
		return nil, fmt.Errorf("core: observed and expected codes must differ")
	}
	feat := features.Name(target, features.Compare)
	return &pxql.Query{
		Observed: pxql.Predicate{{Feature: feat, Op: pxql.OpEq, Value: joblog.Str(obsCode)}},
		Expected: pxql.Predicate{{Feature: feat, Op: pxql.OpEq, Value: joblog.Str(expCode)}},
	}, nil
}
