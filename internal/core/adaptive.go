package core

// Wilson-adaptive stratified budgets. The one-shot allocator
// (stratifyBudgets) spends the pair budget proportionally to each
// blocking group's pair-space size — a reasonable prior, but blind to
// where the estimates are actually uncertain: a huge stratum whose
// pairs are all labelled the same way needs few draws, while a small
// stratum sitting near a 50/50 label split needs many. The two-pass
// scheme here spends a pilot fraction per the proportional rule, reads
// each stratum's label counts off the pilot pairs, and allocates the
// remainder proportional to (Wilson interval width × pair space) — the
// width is the uncertainty of the stratum's observed-rate estimate, the
// pair space is how much population that uncertainty covers.
//
// Determinism: the allocation is a pure function of the pilot pair set
// (itself shard-count- and parallelism-invariant by the PR 7 draw
// contract) and the group list, computed once on the coordinator and
// carried by the specs as explicit per-group budgets. groupDraws is
// prefix-monotonic in the budget — the first b draws of a group's
// counter stream are the same whatever the target — so the final
// round's draw set contains the pilot round's, and the final walk alone
// is the output: no cross-round merging, no double counting.

import (
	"context"

	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// enumerateAdaptive runs the two-pass Wilson-adaptive stratified
// enumeration: a pilot round under the proportional rule, the allocator
// over its counts, then the final round whose pair set is the output.
// Both rounds share the seed — their draw sets nest.
func (e *Explainer) enumerateAdaptive(ctx context.Context, q *pxql.Query, despite pxql.Predicate, seed uint64) (*pairSet, error) {
	// The same group list every stratified planner derives (pruned, never
	// seek-filtered — draws key on group identity; see seek.go).
	groups, _ := blockedGroupsOpt(e.log, despite, 0, true, false)
	pilotBs := stratifyBudgets(groups, pilotBudget(e.cfg.SampleBudget, e.cfg.SamplePilot))
	pilot, err := e.runStratifiedRound(ctx, q, despite, seed, groups, pilotBs, RoundPilot)
	if err != nil {
		return nil, err
	}
	finalBs := adaptiveBudgets(groups, pilotBs, pilot, e.cfg.SampleBudget)
	return e.runStratifiedRound(ctx, q, despite, seed, groups, finalBs, RoundFinal)
}

// runStratifiedRound executes one stratified enumeration round under
// explicit per-group budgets. budgets is parallel to groups, which must
// equal the blocked group list of (log, despite).
func (e *Explainer) runStratifiedRound(ctx context.Context, q *pxql.Query, despite pxql.Predicate, seed uint64,
	groups [][]int, budgets []int, round int) (*pairSet, error) {

	// Each stratified round is a cancellation checkpoint: the pilot and
	// final rounds are the two bounded units of adaptive enumeration.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex := e.cfg.Exec
	ex.prefetch()
	return runEnumSpecs(ctx, ex, e.log,
		planEnumRound(ex.Layout, e.d.Level(), q, despite, groups, 1, budgets, round, ex.shards(), seed))
}

// adaptiveBudgets turns pilot-round counts into final per-group pair
// budgets summing (approximately — floors and whole-group absorption
// bound the excess) to the total budget. groups and pilotBudgets are
// the group list and allocation the pilot round ran with; pilot is the
// pilot round's labelled pair set addressed by global record index.
// Every final budget is at least its group's pilot budget and at least
// stratumFloor, and never exceeds the group's pair space.
func adaptiveBudgets(groups [][]int, pilotBudgets []int, pilot *pairSet, budget int) []int {
	// Attribute each pilot pair to its stratum via the pair's first
	// member: ordered pairs never cross blocking groups.
	rowGroup := make(map[int]int)
	for gi, g := range groups {
		for _, ri := range g {
			rowGroup[ri] = gi
		}
	}
	rel := make([]int, len(groups)) // related pairs seen in the stratum
	obs := make([]int, len(groups)) // … labelled performed-as-observed
	for i, a := range pilot.a {
		gi, ok := rowGroup[a]
		if !ok {
			continue // cannot happen: pilot pairs come from these groups
		}
		rel[gi]++
		if pilot.labels[i] {
			obs[gi]++
		}
	}

	// Remainder to distribute beyond the pilot spend. Weights are Wilson
	// 95% interval widths of the per-stratum observed rate — a stratum
	// with no related pilot pairs has width 1, maximal uncertainty —
	// scaled by pair space so wide intervals over large populations win.
	spent := 0
	for _, b := range pilotBudgets {
		spent += b
	}
	remainder := budget - spent
	if remainder < 0 {
		remainder = 0
	}
	weights := make([]float64, len(groups))
	var wsum float64
	for gi, g := range groups {
		lo, hi := stats.Wilson(obs[gi], rel[gi], wilsonZ)
		weights[gi] = (hi - lo) * float64(pairCount64(len(g)))
		wsum += weights[gi]
	}

	bs := make([]int, len(groups))
	for gi, g := range groups {
		m := pairCount64(len(g))
		b := uint64(pilotBudgets[gi])
		if wsum > 0 {
			b += uint64(float64(remainder) * weights[gi] / wsum)
		}
		if b < stratumFloor {
			b = stratumFloor
		}
		// Same whole-group absorption as the one-shot rule: b >= ceil(3m/4).
		if b >= m-m/4 {
			b = m
		}
		bs[gi] = clampInt(b)
	}
	return bs
}

// pilotBudget is the pilot round's total spend: the configured fraction
// of the pair budget, floored at one stratumFloor so a tiny fraction
// still measures something.
func pilotBudget(budget int, frac float64) int {
	b := int(float64(budget) * frac)
	if b < stratumFloor {
		b = stratumFloor
	}
	if b > budget {
		b = budget
	}
	return b
}
