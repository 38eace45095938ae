// Package core implements PerfXplain's primary contribution: generating
// (despite, because) explanations for PXQL queries from a log of past
// executions (paper Section 4).
//
// Given a query Q = (des, obs, exp) over a pair of interest, the core:
//
//  1. enumerates the log's related pairs — ordered pairs satisfying des
//     and at least one of obs/exp (Definition 7) — labelling each as
//     performed-as-observed or performed-as-expected;
//  2. draws a class-balanced sample of ~2000 pairs (Section 4.3);
//  3. greedily grows a width-w conjunction: per round, the best predicate
//     per feature by C4.5 information gain, then the best across features
//     by a percentile-normalised blend of precision and generality
//     (Algorithm 1);
//  4. optionally generates a despite extension des' with the symmetric
//     algorithm, scoring relevance instead of precision.
//
// Every generated clause is applicable by construction: candidate
// predicates are restricted to those that hold on the pair of interest
// (Definition 3 — the hard requirement that distinguishes this from a
// plain decision tree).
package core

import (
	"math"
	"math/bits"
	"math/rand"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// pairSet is a labelled collection of related pairs, one plane per
// field: pair i is the ordered record pair (a[i], b[i]) — indices into the
// log — and labels[i] is true when it performed as observed. The planes
// are what enumeration results carry and what the bulk fill reads, so a
// pair set is built and materialized without repacking.
type pairSet struct {
	a, b   []int
	labels []bool
}

// newPairSet returns an empty pair set with room for n pairs.
func newPairSet(n int) *pairSet {
	return &pairSet{a: make([]int, 0, n), b: make([]int, 0, n), labels: make([]bool, 0, n)}
}

func (ps *pairSet) len() int { return len(ps.a) }

func (ps *pairSet) add(a, b int, label bool) {
	ps.a = append(ps.a, a)
	ps.b = append(ps.b, b)
	ps.labels = append(ps.labels, label)
}

// blockColumn reports whether despite conjunct a has the form
// <raw>_issame = T over a field of the log — a blocking key of pair
// enumeration — and which field.
func blockColumn(log *joblog.Log, a pxql.Atom) (rawIdx int, ok bool) {
	raw, kind := features.ParseName(a.Feature)
	if kind != features.IsSame || a.Op != pxql.OpEq || a.Value != features.ValT {
		return 0, false
	}
	return log.Schema.Index(raw)
}

// blockIndexes extracts the raw schema indices of the despite clause's
// blocking keys.
func blockIndexes(log *joblog.Log, despite pxql.Predicate) []int {
	var blockIdx []int
	for _, a := range despite {
		if i, ok := blockColumn(log, a); ok {
			blockIdx = append(blockIdx, i)
		}
	}
	return blockIdx
}

// residualDespite is the despite clause minus what blocking proves: a
// conjunct <raw>_issame = T whose column's classes are exact holds on
// every ordered pair of every group blockRecords builds — members are
// present in the column and share its class — so a walk over those
// groups need not evaluate it. Everything else stays: the same feature
// under != or against F, base-feature prefilters (candidateRecords
// thins rows; it does not prove the atom), and issame on a numeric column
// with a loose SIM chain, whose components over-include.
func residualDespite(log *joblog.Log, despite pxql.Predicate) pxql.Predicate {
	cols := log.Columns()
	var residual pxql.Predicate
	for _, a := range despite {
		if f, ok := blockColumn(log, a); ok && blockClassesOf(cols, f).exact {
			continue
		}
		residual = append(residual, a)
	}
	return residual
}

// blockedGroups blocks the candidate records of (log, despite) into
// groups — the single definition of the blocked pair space behind both
// walk planners (PlanEnumShards, PlanEvalShards), so training
// enumeration and explanation evaluation can never drift on blocking,
// group order, the subsampling probability or the clause left to verify.
// Groups are returned in first-appearance order over the record list;
// keepP is the Bernoulli keep probability implied by maxPairs over the
// candidate ordered-pair count; residual is the despite clause the walk
// still has to evaluate on the groups' pairs (residualDespite). The
// construction is a pure function of the record list (the memoized
// columnar view it reads is itself rebuilt deterministically from the
// records), so repeated calls — before or after any cache invalidation —
// produce identical groups.
func blockedGroups(log *joblog.Log, despite pxql.Predicate, maxPairs int) (groups [][]int, keepP float64, residual pxql.Predicate) {
	groups, keepP = blockedGroupsOpt(log, despite, maxPairs, true, true)
	return groups, keepP, residualDespite(log, despite)
}

// blockedGroupsOpt is blockedGroups with zone-map group pruning and
// seek-driven row filtering switchable (test oracles run with either or
// both off; the planners always run with both on). keepP
// is computed over the UNPRUNED, UNFILTERED candidate pair count before
// any group is dropped or thinned: pruned groups and filtered rows
// contribute no despite-satisfying pair, so neither cut changes the
// probability. What a cut does to the surviving pairs' fates depends on
// the thinning regime walkTiles picks from keepP (see skipKeepP): at or
// above the crossover a keep decision is a pure function of (seed, i, j)
// and both cuts leave the output byte-identical; below it the decision
// is a pure function of (seed, i, j's position among its group's
// members), so pruning — which drops whole groups and leaves the others'
// member lists alone — is still byte-identical, while seek filtering —
// which renumbers positions inside a group — yields a different, equally
// valid iid Bernoulli(keepP) thinning of the same related set.
func blockedGroupsOpt(log *joblog.Log, despite pxql.Predicate, maxPairs int, prune, seek bool) (groups [][]int, keepP float64) {
	groups = blockRecords(log.Columns(), candidateRecords(log, despite), blockIndexes(log, despite))

	// Candidate ordered pair count, for the subsampling probability —
	// always over the full candidate space, never the pruned or filtered
	// one. Saturating uint64: huge synthetic logs overflow an int product.
	var total uint64
	for _, g := range groups {
		total = satAdd64(total, pairCount64(len(g)))
	}
	keepP = 1.0
	if maxPairs > 0 && total > uint64(maxPairs) {
		keepP = float64(maxPairs) / float64(total)
	}

	if prune {
		if p := newGroupPruner(log, despite); p != nil {
			kept := groups[:0]
			for _, g := range groups {
				if !p.dead(g) {
					kept = append(kept, g)
				}
			}
			groups = kept
		}
	}
	if seek {
		if s := newRowSeeker(log, despite); s != nil {
			kept := groups[:0]
			for _, g := range groups {
				// A filtered row can be neither side of a satisfying pair,
				// and an ordered pair needs two distinct surviving rows.
				if g = s.filter(g); len(g) >= 2 {
					kept = append(kept, g)
				}
			}
			groups = kept
		}
	}
	return groups, keepP
}

// blockClasses is one blocking column in the form the group builder
// reads: a fixed-width class word per row such that two rows whose
// <raw>_issame derives T always share a class. A row with miss set or
// class noClass can satisfy isSame = T with no row and is unblockable.
// exact reports the converse: any two blockable rows sharing a class
// derive T, so membership of one group proves the conjunct.
type blockClasses struct {
	class []uint32
	miss  bitset.Set
	exact bool
}

// noClass marks a present numeric cell that is similar to nothing (NaN).
const noClass = ^uint32(0)

// simClassKey memoizes a numeric column's SIM-chain blockClasses on the
// columnar view, beside the sorted index they are read off.
type simClassKey int

// blockClassesOf returns column f's blocking classes. Both kinds read
// the planes, which is exactly what features.IsSameSym compares — alien
// cells included — so blocking needs no boxed fallback.
//
// Nominal: the interned symbol; isSame is symbol equality, so the classes
// are exact.
//
// Numeric: isSame is the 10% SIM band (stats.Similar), which is not
// transitive, so rows are classed by SIM-chain component: the distinct
// non-NaN values in ascending order (the memoized sorted index), cut
// wherever two neighbours are not Similar. Any value between two similar
// values is similar to both, so two similar values are never separated
// by a cut. Components over-include when the ends of a long chain are not
// similar; the planners then leave the conjunct in the clause the walk
// verifies, so that costs pairs walked, never pairs returned. When every
// component is tight — its two ends Similar, hence by the same
// betweenness every pair inside it — the classes are exact. An infinite
// value is similar to every finite one whatever lies between (and not to
// itself), so a column holding one is a single class and never exact.
func blockClassesOf(cols *joblog.Columns, f int) blockClasses {
	col := cols.Col(f)
	if col.Kind != joblog.Numeric {
		return blockClasses{class: col.Sym, miss: col.Miss, exact: true}
	}
	ix := cols.SortedIndex(f) // outside the memo lock: Memo builders must not re-enter it
	return cols.Memo(simClassKey(f), func() any {
		class := make([]uint32, cols.Len())
		for i := range class {
			class[i] = noClass
		}
		chain := !math.IsInf(ix.Min, -1) && !math.IsInf(ix.Max, 1)
		tight := chain
		comp := uint32(0)
		start := 0 // position in Perm of the current component's smallest value
		for k, r := range ix.Perm {
			if k > 0 && chain && !stats.Similar(col.Num[ix.Perm[k-1]], col.Num[r]) {
				comp++
				start = k
			}
			tight = tight && stats.Similar(col.Num[ix.Perm[start]], col.Num[r])
			class[r] = comp
		}
		return blockClasses{class: class, miss: col.Miss, exact: tight}
	}).(blockClasses)
}

// blockRecords groups recs by their blocking-class tuple over the
// blockIdx columns, in first-appearance order; unblockable records are
// dropped. The tuple is refined one column at a time — level c maps
// (group id at level c−1, class in column c) to a dense id in
// first-appearance order — so a key is one fixed-width word whatever the
// column count, distinct tuples can never alias, and the last level's id
// is the group index. An empty blockIdx yields the single "no blocking"
// group.
func blockRecords(cols *joblog.Columns, recs []int, blockIdx []int) [][]int {
	bcs := make([]blockClasses, len(blockIdx))
	levels := make([]map[uint64]int32, len(blockIdx))
	for c, f := range blockIdx {
		bcs[c] = blockClassesOf(cols, f)
		levels[c] = make(map[uint64]int32)
	}
	gids := make([]int32, len(recs)) // group of each candidate, -1 unblockable
	var sizes []int
rows:
	for k, ri := range recs {
		gids[k] = -1
		id := int32(0)
		for c := range bcs {
			cl := bcs[c].class[ri]
			if bcs[c].miss.Get(ri) || cl == noClass {
				continue rows
			}
			key := uint64(id)<<32 | uint64(cl)
			next, seen := levels[c][key]
			if !seen {
				next = int32(len(levels[c]))
				levels[c][key] = next
			}
			id = next
		}
		if int(id) == len(sizes) {
			sizes = append(sizes, 0)
		}
		sizes[id]++
		gids[k] = id
	}
	// One backing array for every group's members, cut by the counts.
	backing := make([]int, len(recs))
	groups := make([][]int, len(sizes))
	off := 0
	for gi, n := range sizes {
		groups[gi] = backing[off : off : off+n]
		off += n
	}
	for k, ri := range recs {
		if gi := gids[k]; gi >= 0 {
			groups[gi] = append(groups[gi], ri)
		}
	}
	return groups
}

// pairCount64 is a group's ordered-pair count n·(n−1) computed with
// uint64 saturation, so pair-space products on huge synthetic logs
// clamp instead of wrapping (they only feed the keep probability, where
// MaxUint64 is an honest "effectively infinite").
func pairCount64(n int) uint64 {
	if n < 2 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(n), uint64(n-1))
	if hi != 0 {
		return ^uint64(0)
	}
	return lo
}

// satAdd64 adds with uint64 saturation.
func satAdd64(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// keepPair is the counter-based Bernoulli subsampling decision for the
// ordered record pair (i, j) at keepP >= skipKeepP (the dense regime of
// walkTiles): a pure function of the seed and the pair, so the decision
// is identical whichever shard or goroutine evaluates it, and whatever
// pruning or seek filtering did to the pair's group.
func keepPair(seed uint64, i, j int, keepP float64) bool {
	if keepP >= 1 {
		return true
	}
	return stats.KeepFloat(seed, uint64(i)<<32|uint64(uint32(j))) < keepP
}

// skipKeepP is the keep probability below which walkTiles stops hashing
// every candidate pair and draws the gaps between kept pairs instead. A
// gap costs a hash and a logarithm per KEPT pair, keepPair a hash per
// CANDIDATE pair: the two meet near keepP = 1/4 on the reference box, so
// 1/8 leaves the dense loop every walk it wins. A constant, not an
// option: it selects between two exact samplers of the same distribution
// from a value the walk already has.
const skipKeepP = 1.0 / 8

// skipSampled reports whether a Bernoulli walk under keepP takes the
// geometric-skip path. Non-positive and NaN probabilities (wire input
// only — the planner's keepP is in (0, 1]) stay on the dense path, where
// keepPair keeps nothing.
func skipSampled(keepP float64) bool { return keepP > 0 && keepP < skipKeepP }

// skipStream is one outer record's stream of geometric gaps: the k'th
// gap is ⌊ln U_k / ln(1−keepP)⌋ with U_k the k'th uniform of a splitmix
// counter stream keyed on (seed, the outer's global record index) — the
// number of Bernoulli(keepP) failures before the next success, so
// walking an inner sequence by these gaps keeps each position
// independently with probability keepP while touching only the kept
// ones.
type skipStream struct {
	state   uint64
	k       uint64
	invLogQ float64 // 1 / ln(1−keepP), negative
}

func newSkipStream(seed uint64, i int, invLogQ float64) skipStream {
	return skipStream{
		state:   stats.SplitMix64(seed ^ (uint64(i)*0x9e3779b97f4a7c15 + 0xbb67ae8584caa73b)),
		invLogQ: invLogQ,
	}
}

// next draws the next gap; ok is false when it reaches past the room
// positions left, ending the row.
func (s *skipStream) next(room int) (gap int, ok bool) {
	u := stats.KeepFloat(s.state, s.k)
	s.k++
	return geomGap(u, s.invLogQ, room)
}

// geomGap maps a uniform u in [0, 1) to the geometric gap
// ⌊ln u · invLogQ⌋, or ok false when the gap is not below room. The
// comparison happens in floating point, before any conversion: u = 0
// (gap +Inf), a keepP so small that invLogQ overflows, and NaN all fail
// it, so the int conversion only ever sees a value below room.
func geomGap(u, invLogQ float64, room int) (gap int, ok bool) {
	g := math.Floor(math.Log(u) * invLogQ)
	if !(g < float64(room)) {
		return 0, false
	}
	return int(g), true
}

// pairBlock is the tile size of batched pair evaluation: 4096 pairs = 64
// selection-bitmap words, small enough that a tile's index arrays,
// bitmaps and the column-plane cells they touch stay cache-resident
// while every clause scans it.
const pairBlock = 4096

// candidateRecords applies base-feature equality prefilters from the
// despite clause and returns surviving record indices. Alien-free filter
// columns seek their matching row run in the per-column sorted index
// (plane equality is boxed equality there) and intersect as bitmaps;
// any alien cell on a filter column falls the whole call back to the
// exact boxed scan. Both paths implement Value.Equal semantics: missing
// cells match nothing, a missing or kind-mismatched or never-logged
// constant matches no record.
func candidateRecords(log *joblog.Log, despite pxql.Predicate) []int {
	type filter struct {
		idx int
		val joblog.Value
	}
	var filters []filter
	for _, a := range despite {
		raw, kind := features.ParseName(a.Feature)
		if kind != features.Base || a.Op != pxql.OpEq {
			continue
		}
		if i, ok := log.Schema.Index(raw); ok {
			filters = append(filters, filter{i, a.Value})
		}
	}
	n := log.Len()
	if len(filters) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	cols := log.Columns()
	fast := true
	for _, f := range filters {
		if cols.Col(f.idx).HasAlien {
			fast = false
			break
		}
	}
	if !fast {
		out := make([]int, 0, n)
		for i, r := range log.Records {
			ok := true
			for _, f := range filters {
				if !r.Values[f.idx].Equal(f.val) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, i)
			}
		}
		return out
	}
	// Each atom's equality bitmap is memoized on the columnar view (and,
	// for snapshot views, stitched from bitmaps memoized on the sealed
	// segments — see joblog.EqualRowsBitmap), so repeated despite clauses
	// and growing logs pay only for what changed. The memoized bitmaps
	// are shared: intersect into a private copy.
	var sel bitset.Set
	for _, f := range filters {
		bm := cols.EqualRowsBitmap(f.idx, f.val)
		if sel == nil {
			sel = bitset.Make(n)
			sel.CopyFrom(bm)
		} else {
			sel.AndWith(bm)
		}
	}
	out := make([]int, 0, n)
	sel.ForEach(func(i int) { out = append(out, i) })
	return out
}

// balancedSample keeps each example with probability m/(2·classSize), the
// paper's Section 4.3 rule, yielding ≈m/2 of each class in expectation.
// A wildly unbalanced related set therefore cannot trick the scorer into
// accepting the empty explanation. The rule applies even when the related
// set is smaller than m: balance, not just volume, is the point — the
// minority class is always kept in full while an oversized majority is
// thinned toward it.
func balancedSample(ps *pairSet, m int, rng *rand.Rand) *pairSet {
	if m <= 0 {
		return ps
	}
	nObs, nExp := ps.counts()
	pObs, pExp := 1.0, 1.0
	if nObs > 0 {
		pObs = minf(1, float64(m)/(2*float64(nObs)))
	}
	if nExp > 0 {
		pExp = minf(1, float64(m)/(2*float64(nExp)))
	}
	// Below the size budget, thin only the majority class down toward the
	// minority so small related sets still train balanced.
	if ps.len() <= m {
		pObs, pExp = 1, 1
		switch {
		case nObs > 2*nExp && nExp > 0:
			pObs = 2 * float64(nExp) / float64(nObs)
		case nExp > 2*nObs && nObs > 0:
			pExp = 2 * float64(nObs) / float64(nExp)
		}
	}
	// Presized to the expected draw plus four standard deviations of
	// slack, so the appends below all but never regrow.
	out := newPairSet(expectedDraw(nObs, pObs, nExp, pExp))
	for i, l := range ps.labels {
		p := pExp
		if l {
			p = pObs
		}
		if rng.Float64() < p {
			out.add(ps.a[i], ps.b[i], l)
		}
	}
	return out
}

// expectedDraw bounds the size of an independent-keep draw of nObs pairs
// at pObs and nExp pairs at pExp: the mean plus four standard deviations,
// capped at the population.
func expectedDraw(nObs int, pObs float64, nExp int, pExp float64) int {
	mean := float64(nObs)*pObs + float64(nExp)*pExp
	return min(nObs+nExp, int(mean+4*math.Sqrt(mean))+1)
}

// uniformSample ignores class balance — kept for the ablation benchmark
// showing why Section 4.3's balancing matters.
func uniformSample(ps *pairSet, m int, rng *rand.Rand) *pairSet {
	if m <= 0 || ps.len() <= m {
		return ps
	}
	p := float64(m) / float64(ps.len())
	out := newPairSet(expectedDraw(ps.len(), p, 0, 0))
	for i, l := range ps.labels {
		if rng.Float64() < p {
			out.add(ps.a[i], ps.b[i], l)
		}
	}
	return out
}

// fillChunk is the row count of one materialization work unit: small
// enough that a 2 000-pair sample spreads over the workers, large enough
// that each raw column's plane is hoisted once per few hundred gathers.
const fillChunk = 512

// materialize computes the derived feature vectors for the pair set into
// a flat pair matrix, fixed-size row chunks fanned out across workers;
// each cell is written by exactly one goroutine, so the result is
// identical at every worker count. The planes are allocated once up front
// — the steady-state fill path performs zero allocations per pair.
func materialize(log *joblog.Log, d *features.Deriver, ps *pairSet, workers int) *features.PairMatrix {
	cols := log.Columns()
	n := ps.len()
	m := d.NewPairMatrix(n)
	par.Do((n+fillChunk-1)/fillChunk, workers, func(c int) {
		lo := c * fillChunk
		hi := min(lo+fillChunk, n)
		m.FillPairs(cols, lo, ps.a[lo:hi], ps.b[lo:hi])
	})
	return m
}

func (ps *pairSet) counts() (obs, exp int) {
	for _, l := range ps.labels {
		if l {
			obs++
		} else {
			exp++
		}
	}
	return obs, exp
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
