package core

// Seek-driven within-group enumeration. A despite conjunct `<raw> <op> c`
// over a numeric base feature holds on an ordered pair only when BOTH
// sides are present, non-NaN, equal, and carry a value inside the atom's
// lowered ValueRange — so any row whose own cell falls outside the range
// (or is missing or NaN) cannot be either side of a qualifying pair.
// Instead of tiling a blocking group's full n·(n−1) pair matrix and
// letting EvalBlock reject those pairs one tile at a time, the per-column
// sorted index seeks directly to the qualifying value range
// (ColIndex.RangeBetween) and the group is filtered to the intersection
// before any pair is walked: a wide group with a needle-thin qualifying
// range collapses from O(n²) pair evaluations to O(k²) with k the
// qualifying rows, and a group left with fewer than two rows is dropped
// whole. This is the walk planner's one index cut below blocking. A
// training sample whose despite residual is only such ranges and base
// equalities is drawn by rank from a layout cut by the same ranges
// (rank.go, baseRangeOf), so the walk's seek serves Evaluate,
// RelatedPairsP and the questions the rank sampler declines.
//
// Exactness contract: a row may be filtered only when no ordered pair
// containing it satisfies the despite clause, so filtering removes pairs
// that enumeration would have rejected anyway: uncapped, output is
// byte-identical with the filter on or off. The Bernoulli keep
// probability is computed over the UNFILTERED pair count (see
// blockedGroups), so the filter never changes how hard a capped walk is
// thinned. Which pairs a capped walk keeps depends on the regime
// walkTiles picks from keepP:
//
//   - keepP >= skipKeepP: each keep decision is a pure function of
//     (seed, i, j) global record indices, so thinning is unchanged and
//     output stays byte-identical;
//   - keepP < skipKeepP: the decision is keyed on the inner row's
//     position among its group's members, and filtering renumbers the
//     positions of the rows it leaves. Seek on and seek off are then two
//     different iid Bernoulli(keepP) thinnings of the same related set —
//     equally valid samples, not the same bytes. The planners always seek
//     (blockedGroups), so every executor, spec count and seal boundary
//     still sees one and the same thinning; only a test or ablation that
//     switches seek off sees the other.
//
// A filtered group is a fresh list; the group it was cut from — possibly
// the view's memoized one (candidateGroups), shared with every other
// query — is left as found, so a later plan without the conjunct sees
// every row again.
//
// TestSeekEnumExact pins all three cases. Conjuncts that do not lower
// exactly — OpNe, nominal columns, kind-mismatched constants —
// contribute no filter and those rows are walked as before.

import (
	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// rowSeeker filters a blocking group to the rows that can appear in a
// despite-satisfying pair, via the intersection of the per-conjunct
// qualifying ranges seeked from the sorted column indexes.
type rowSeeker struct {
	allow bitset.Set // global row set; rows outside can satisfy no pair
}

// baseRange is a despite conjunct `<raw> <op> c` lowered to the value
// range of its numeric column f.
type baseRange struct {
	f   int
	rng pxql.ValueRange
}

// baseRangeOf lowers a despite conjunct to a base range. Only a base
// feature over a numeric column, compared with a numeric constant under an
// operator with a one-range lowering (pxql.AtomNumRange), qualifies:
// OpNe's complement is not a single range, kind mismatches never lower,
// and nominal equality is candidateRecords' prefilter.
func baseRangeOf(log *joblog.Log, a pxql.Atom) (baseRange, bool) {
	raw, fam := features.ParseName(a.Feature)
	if fam != features.Base || a.Op == pxql.OpNe {
		return baseRange{}, false
	}
	f, ok := log.Schema.Index(raw)
	if !ok || log.Schema.Field(f).Kind != joblog.Numeric || a.Value.Kind != joblog.Numeric {
		return baseRange{}, false
	}
	rng, ok := pxql.AtomNumRange(a.Op, a.Value.Num)
	return baseRange{f, rng}, ok
}

// newRowSeeker lowers the despite clause's numeric base conjuncts to
// seekable value ranges (baseRangeOf) and intersects their qualifying row
// sets. It returns nil when no conjunct lowers exactly — enumeration then
// walks every group unfiltered, exactly as before. It reads only the
// memoized columnar view (a pure deterministic function of the record
// list), so the filter is identical across rebuilds, shard counts and
// processes.
func newRowSeeker(log *joblog.Log, despite pxql.Predicate) *rowSeeker {
	cols := log.Columns()
	var allow bitset.Set
	for _, a := range despite {
		br, ok := baseRangeOf(log, a)
		if !ok {
			continue
		}
		rng := br.rng
		// Perm already excludes missing and NaN cells, so the range seek
		// returns exactly the rows that can sit on either side of a
		// satisfying pair. An empty range yields an empty row set and
		// every group filters to nothing — the conjunct is unsatisfiable.
		rows := cols.SortedIndex(br.f).RangeBetween(rng.Lo, rng.Hi, rng.LoOpen, rng.HiOpen)
		cur := bitset.Make(log.Len())
		for _, r := range rows {
			cur.SetBit(int(r))
		}
		if allow == nil {
			allow = cur
		} else {
			allow.AndWith(cur)
		}
	}
	if allow == nil {
		return nil
	}
	return &rowSeeker{allow: allow}
}

// filter returns g's qualifying rows in order: g itself when every row
// qualifies, a fresh list otherwise. g is never written — it may be a
// view's memoized group, shared with other queries.
func (s *rowSeeker) filter(g []int) []int {
	n := 0
	for _, i := range g {
		n += int(bitset.B2u(s.allow.Get(i)))
	}
	if n == len(g) {
		return g
	}
	out := make([]int, 0, n)
	for _, i := range g {
		if s.allow.Get(i) {
			out = append(out, i)
		}
	}
	return out
}
