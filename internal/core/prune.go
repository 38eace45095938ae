package core

// Zone-map pruning of blocking groups. Before a group's ordered pairs are
// walked (and before EvalBlock ever runs on them), each despite conjunct
// is checked against per-group zone statistics — min/max over the raw
// column, presence counts, distinct-symbol counts — and a group that
// provably cannot satisfy some conjunct on ANY of its pairs is dropped
// from the pair space entirely. This is the index-driven enumeration
// layer's group-level cut: on skewed logs whole heavy groups die in O(|g|)
// instead of O(|g|²).
//
// Exactness contract: a check may return dead=true only when every
// ordered pair of the group fails the conjunct, so pruning removes pairs
// that enumeration would have rejected anyway and output stays
// byte-identical. The Bernoulli keep probability is computed over the
// UNPRUNED candidate pair count (see blockedGroups), and a surviving
// pair's keep decision reads nothing a dropped group could change — it is
// a pure function of (seed, i, j) at keepP >= skipKeepP, and of (seed, i,
// j's position in its own group's member list) below it (see walkTiles) —
// so thinning is unchanged in both regimes. Pruning builds its own list
// of surviving groups: the input may be the view's memoized plan
// (candidateGroups), which every query over the view shares. Every rule below is
// conservative: when in doubt, a conjunct emits no check (or the check
// returns alive) and the group is walked.

import (
	"math"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// groupZone is the zone map of one raw column restricted to a group.
type groupZone struct {
	min, max float64 // over present non-NaN cells; NaN when none
	nPresent int     // present cells, NaN included
	nVals    int     // present non-NaN cells
	hasNaN   bool
}

func colZone(col *joblog.Col, g []int) groupZone {
	z := groupZone{min: math.NaN(), max: math.NaN()}
	for _, i := range g {
		if col.Miss.Get(i) {
			continue
		}
		z.nPresent++
		x := col.Num[i]
		if math.IsNaN(x) {
			z.hasNaN = true
			continue
		}
		if z.nVals == 0 || x < z.min {
			z.min = x
		}
		if z.nVals == 0 || x > z.max {
			z.max = x
		}
		z.nVals++
	}
	return z
}

// nPresentSym counts present cells of a nominal column within a group,
// stopping early once the count exceeds limit (pass len(g) for an exact
// count).
func nPresentSym(col *joblog.Col, g []int, limit int) int {
	n := 0
	for _, i := range g {
		if !col.Miss.Get(i) {
			n++
			if n > limit {
				return n
			}
		}
	}
	return n
}

// groupPruner holds one dead-group check per provably-loweable despite
// conjunct. A group is pruned when any check proves it dead.
type groupPruner struct {
	checks []func(g []int) bool
}

// dead reports whether some conjunct is provably false on every ordered
// pair of the group.
func (p *groupPruner) dead(g []int) bool {
	if p == nil {
		return false
	}
	for _, c := range p.checks {
		if c(g) {
			return true
		}
	}
	return false
}

// newGroupPruner lowers the despite conjuncts to zone checks. Columns
// with alien cells (plane values that disagree with the boxed record —
// see joblog.Col.HasAlien) never produce checks: the compiled predicate
// falls back to boxed evaluation there and the zones describe only the
// planes. The pruner reads the memoized columnar view, which is itself a
// pure deterministic function of the record list, so group pruning is
// identical across rebuilds, shard counts and processes.
func newGroupPruner(log *joblog.Log, despite pxql.Predicate) *groupPruner {
	cols := log.Columns()
	p := &groupPruner{}
	for _, a := range despite {
		raw, fam := features.ParseName(a.Feature)
		fi, ok := log.Schema.Index(raw)
		if !ok {
			continue
		}
		col := cols.Col(fi)
		if col.HasAlien {
			continue
		}
		switch fam {
		case features.Base:
			p.addBaseCheck(cols, col, a)
		case features.IsSame:
			p.addIsSameCheck(col, a)
		case features.Compare:
			p.addCompareCheck(col, a)
			// Diff values ("a→b") have no useful zone form; skip.
		}
	}
	if len(p.checks) == 0 {
		return nil
	}
	return p
}

// addBaseCheck lowers `<raw> <op> c`. The derived base feature is present
// on a pair only when both sides hold the identical value, so a group
// whose column zone cannot contain a satisfying value is dead.
func (p *groupPruner) addBaseCheck(cols *joblog.Columns, col *joblog.Col, a pxql.Atom) {
	if a.Value.IsMissing() {
		return
	}
	switch col.Kind {
	case joblog.Numeric:
		if a.Value.Kind != joblog.Numeric {
			return
		}
		c := a.Value.Num
		if a.Op == pxql.OpNe {
			if math.IsNaN(c) {
				return
			}
			// `base != c` needs an equal-valued pair with value != c. NaN
			// cells never form an equal pair (NaN != NaN), so the group is
			// dead when every present non-NaN value equals c.
			p.checks = append(p.checks, func(g []int) bool {
				for _, i := range g {
					if !col.Miss.Get(i) {
						if x := col.Num[i]; !math.IsNaN(x) && x != c {
							return false
						}
					}
				}
				return true
			})
			return
		}
		rng, ok := pxql.AtomNumRange(a.Op, c)
		if !ok {
			return
		}
		p.checks = append(p.checks, func(g []int) bool {
			z := colZone(col, g)
			// A pair needs two present sides; NaN cells never make the base
			// present, so the non-NaN zone covers all candidate values.
			return z.nPresent <= 1 || rng.DisjointFrom(z.min, z.max)
		})
	case joblog.Nominal:
		if a.Value.Kind != joblog.Nominal {
			return
		}
		id, interned := cols.Intern().Lookup(a.Value.Str)
		switch a.Op {
		case pxql.OpEq:
			if !interned {
				// The constant was never logged: base equality can never
				// produce it, in any group.
				p.checks = append(p.checks, func([]int) bool { return true })
				return
			}
			p.checks = append(p.checks, func(g []int) bool {
				for _, i := range g {
					if !col.Miss.Get(i) && col.Sym[i] == id {
						return false
					}
				}
				return true
			})
		case pxql.OpNe:
			if !interned {
				return // every present value differs from c; can't prune
			}
			p.checks = append(p.checks, func(g []int) bool {
				for _, i := range g {
					if !col.Miss.Get(i) && col.Sym[i] != id {
						return false
					}
				}
				return true
			})
		}
	}
}

// addIsSameCheck lowers `<raw>_issame <op> {T|F}`. The derived value is
// present exactly when both sides are present, so a group with at most
// one present cell is always dead; beyond that, zone width decides F and
// distinct-symbol counts decide the nominal cases.
func (p *groupPruner) addIsSameCheck(col *joblog.Col, a pxql.Atom) {
	if a.Value.Kind != joblog.Nominal || (a.Op != pxql.OpEq && a.Op != pxql.OpNe) {
		return
	}
	var wantT bool
	switch {
	case a.Value == features.ValT:
		wantT = a.Op == pxql.OpEq
	case a.Value == features.ValF:
		wantT = a.Op == pxql.OpNe
	default:
		if a.Op == pxql.OpEq {
			// Equality against a constant outside {T, F} never holds.
			p.checks = append(p.checks, func([]int) bool { return true })
		} else {
			// `!= c` holds whenever the feature is present: only the
			// presence rule applies.
			p.checks = append(p.checks, p.presenceCheck(col))
		}
		return
	}
	switch {
	case col.Kind == joblog.Numeric && !wantT:
		// Asserting dissimilarity: dead when every pair is similar, which
		// Similar(min, max) proves (any pair's values lie within the
		// zone). A NaN cell is dissimilar to everything, so its pairs
		// satisfy F — never prune those groups.
		p.checks = append(p.checks, func(g []int) bool {
			z := colZone(col, g)
			if z.nPresent <= 1 {
				return true
			}
			if z.hasNaN {
				return false
			}
			return stats.Similar(z.min, z.max)
		})
	case col.Kind == joblog.Nominal && !wantT:
		// Dead when at most one distinct symbol is present: every pair is
		// then same-valued and _issame is always T.
		p.checks = append(p.checks, func(g []int) bool {
			first := uint32(0)
			seen := false
			for _, i := range g {
				if col.Miss.Get(i) {
					continue
				}
				if seen && col.Sym[i] != first {
					return false
				}
				first, seen = col.Sym[i], true
			}
			return true
		})
	case col.Kind == joblog.Nominal && wantT:
		// Asserting sameness: dead when no symbol repeats (beyond the
		// presence rule). Equal-valued pairs are the only T pairs.
		p.checks = append(p.checks, func(g []int) bool {
			seen := make(map[uint32]struct{}) // unsized: a repeat usually ends the scan within a few rows
			for _, i := range g {
				if col.Miss.Get(i) {
					continue
				}
				if _, dup := seen[col.Sym[i]]; dup {
					return false
				}
				seen[col.Sym[i]] = struct{}{}
			}
			return true
		})
	default:
		// Numeric wantT: a narrow zone proves pairs similar, never the
		// reverse; only the presence rule is safe.
		p.checks = append(p.checks, p.presenceCheck(col))
	}
}

// addCompareCheck lowers `<raw>_compare <op> {LT|SIM|GT}` (numeric raw
// columns only — compare derives Missing on nominal columns, which this
// conservatively leaves alone).
func (p *groupPruner) addCompareCheck(col *joblog.Col, a pxql.Atom) {
	if col.Kind != joblog.Numeric || a.Value.Kind != joblog.Nominal ||
		(a.Op != pxql.OpEq && a.Op != pxql.OpNe) {
		return
	}
	var needLT, needSIM, needGT bool
	switch a.Value {
	case features.ValLT:
		needLT = true
	case features.ValSIM:
		needSIM = true
	case features.ValGT:
		needGT = true
	default:
		if a.Op == pxql.OpEq {
			p.checks = append(p.checks, func([]int) bool { return true })
		} else {
			p.checks = append(p.checks, p.presenceCheck(col))
		}
		return
	}
	if a.Op == pxql.OpNe {
		needLT, needSIM, needGT = !needLT, !needSIM, !needGT
	}
	if needSIM {
		// Equal-valued pairs always derive SIM; zones cannot rule them
		// out, so only the presence rule applies.
		p.checks = append(p.checks, p.presenceCheck(col))
		return
	}
	gtSat := needGT // a NaN cell's pairs derive GT (Similar and < both fail)
	p.checks = append(p.checks, func(g []int) bool {
		z := colZone(col, g)
		if z.nPresent <= 1 {
			return true
		}
		if z.hasNaN && gtSat {
			return false
		}
		if z.nVals <= 1 {
			// All non-NaN-side pairs involve a NaN and derive GT, which is
			// not asserted here.
			return true
		}
		// Similar(min, max) proves every non-NaN pair derives SIM, so
		// neither LT nor GT can occur.
		return stats.Similar(z.min, z.max)
	})
}

// presenceCheck proves a group dead when the column has at most one
// present cell: every derived pair feature over it is then Missing, and
// a Missing value fails every operator.
func (p *groupPruner) presenceCheck(col *joblog.Col) func(g []int) bool {
	return func(g []int) bool {
		if col.Kind == joblog.Numeric {
			return colZone(col, g).nPresent <= 1
		}
		return nPresentSym(col, g, 1) <= 1
	}
}
