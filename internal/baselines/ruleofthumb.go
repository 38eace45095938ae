// Package baselines implements the two naïve explanation generators the
// paper compares against (Section 5): RuleOfThumb, which reports
// differences in globally important features, and SimButDiff, which
// performs what-if analysis over the isSame features of similar pairs.
// Both emit core.Explanation values so the evaluation harness scores all
// three techniques identically.
package baselines

import (
	"fmt"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/relief"
	"perfxplain/internal/stats"
)

// RuleOfThumb ranks raw features once by their general impact on the
// target (via RReliefF, the Relief adaptation the paper cites) and
// answers every query with the top-w important features the pair of
// interest disagrees on, as `f_issame = F` predicates (Section 5.1).
type RuleOfThumb struct {
	log     *joblog.Log
	d       *features.Deriver
	ranking []string // raw feature names, most important first
	target  string
}

// NewRuleOfThumb builds the baseline, performing the one-time feature
// ranking. This step sees only the log, never any query — the technique's
// defining weakness.
func NewRuleOfThumb(log *joblog.Log, target string, seed int64) (*RuleOfThumb, error) {
	if log == nil || log.Len() < 2 {
		return nil, fmt.Errorf("baselines: need at least 2 records")
	}
	weights, err := relief.RegressionWeights(log, target, relief.Config{
		K:    10,
		M:    250,
		Rand: stats.DeriveRand(seed, "ruleofthumb"),
	})
	if err != nil {
		return nil, err
	}
	ranking := relief.Ranking(log.Schema, weights)
	// Drop the target itself from the ranking.
	kept := ranking[:0]
	for _, name := range ranking {
		if name != target {
			kept = append(kept, name)
		}
	}
	return &RuleOfThumb{
		log:     log,
		d:       features.NewDeriver(log.Schema, features.Level3),
		ranking: kept,
		target:  target,
	}, nil
}

// Explain returns the top-width disagreeing important features for the
// query's pair of interest. The PXQL query itself is otherwise ignored —
// exactly the behaviour the paper critiques.
func (r *RuleOfThumb) Explain(q *pxql.Query, width int) (*core.Explanation, error) {
	a := r.log.Find(q.ID1)
	b := r.log.Find(q.ID2)
	if a == nil || b == nil {
		return nil, fmt.Errorf("baselines: pair of interest (%q, %q) not in log", q.ID1, q.ID2)
	}
	var clause pxql.Predicate
	for _, raw := range r.ranking {
		if len(clause) >= width {
			break
		}
		v, ok := r.d.ValueByName(a, b, features.Name(raw, features.IsSame))
		if !ok || v != features.ValF {
			continue // pair agrees (or value missing): nothing to point at
		}
		clause = append(clause, pxql.Atom{
			Feature: features.Name(raw, features.IsSame),
			Op:      pxql.OpEq,
			Value:   features.ValF,
		})
	}
	if len(clause) == 0 {
		return nil, fmt.Errorf("baselines: pair agrees on every ranked feature")
	}
	return &core.Explanation{Because: clause}, nil
}
