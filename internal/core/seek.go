package core

// Seek-driven within-group enumeration. Zone-map pruning (prune.go)
// drops whole blocking groups that provably contain no despite-satisfying
// pair; this file is the row-level counterpart for the groups that
// survive: the same AtomNumRange lowering that proves a group dead
// proves which individual rows can appear in a satisfying pair at all.
// A despite conjunct `<raw> <op> c` over a numeric base feature holds on
// an ordered pair only when BOTH sides are present, non-NaN, equal, and
// carry a value inside the atom's lowered ValueRange — so any row whose
// own cell falls outside the range (or is missing or NaN) cannot be
// either side of a qualifying pair. Instead of tiling the group's full
// n·(n−1) pair matrix and letting EvalBlock reject those pairs one tile
// at a time, the per-column sorted index seeks directly to the
// qualifying value range (ColIndex.RangeBetween) and the group is
// filtered to the intersection before any pair is walked: a wide group
// with a needle-thin qualifying range collapses from O(n²) pair
// evaluations to O(k²) with k the qualifying rows.
//
// Exactness contract (mirrors prune.go): a row may be filtered only
// when no ordered pair containing it satisfies the despite clause, so
// filtering removes pairs that enumeration would have rejected anyway:
// uncapped, output is byte-identical with the filter on or off. The
// Bernoulli keep probability is computed over the UNFILTERED pair count
// (see blockedGroups), so the filter never changes how hard a capped walk
// is thinned. Which pairs a capped walk keeps depends on the regime
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
// exactly — OpNe, nominal columns, alien columns, kind-mismatched
// constants — contribute no filter and those rows are walked as before.

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

// newRowSeeker lowers the despite clause's numeric base conjuncts to
// seekable value ranges and intersects their qualifying row sets. It
// returns nil when no conjunct lowers exactly — enumeration then walks
// every group unfiltered, exactly as before. Like the pruner it reads
// only the memoized columnar view (a pure deterministic function of the
// record list), so the filter is identical across rebuilds, shard
// counts and processes.
func newRowSeeker(log *joblog.Log, despite pxql.Predicate) *rowSeeker {
	cols := log.Columns()
	var allow bitset.Set
	for _, a := range despite {
		raw, fam := features.ParseName(a.Feature)
		// Only `<raw> <op> c` base conjuncts with a one-range lowering
		// qualify: OpNe's complement is not a single range, and nominal
		// equality is already handled by candidateRecords' prefilter.
		if fam != features.Base || a.Op == pxql.OpNe {
			continue
		}
		fi, ok := log.Schema.Index(raw)
		if !ok {
			continue
		}
		col := cols.Col(fi)
		// Alien cells make the planes (and the index over them) diverge
		// from boxed evaluation; kind mismatches never lower. Mirrors
		// newGroupPruner's guards.
		if col.HasAlien || col.Kind != joblog.Numeric ||
			a.Value.IsMissing() || a.Value.Kind != joblog.Numeric {
			continue
		}
		rng, ok := pxql.AtomNumRange(a.Op, a.Value.Num)
		if !ok {
			continue
		}
		// Perm already excludes missing and NaN cells, so the range seek
		// returns exactly the rows that can sit on either side of a
		// satisfying pair. An empty range yields an empty row set and
		// every group filters to nothing — the conjunct is unsatisfiable.
		rows := cols.SortedIndex(fi).RangeBetween(rng.Lo, rng.Hi, rng.LoOpen, rng.HiOpen)
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
