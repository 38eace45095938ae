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
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// pairPlanes is a flat labelled list of pairs, one plane per field: pair
// i is the ordered record pair (a[i], b[i]) — indices into the log — and
// labels[i] is true when it performed as observed. It is the form of a
// training sample, which the bulk fill reads without repacking.
type pairPlanes struct {
	a, b   []int
	labels []bool
}

// newPairPlanes returns an empty list with room for n pairs.
func newPairPlanes(n int) *pairPlanes {
	return &pairPlanes{a: make([]int, 0, n), b: make([]int, 0, n), labels: make([]bool, 0, n)}
}

func (p *pairPlanes) len() int { return len(p.a) }

func (p *pairPlanes) add(a, b int, label bool) {
	p.a = append(p.a, a)
	p.b = append(p.b, b)
	p.labels = append(p.labels, label)
}

func (p *pairPlanes) counts() (obs, exp int) {
	obs = countObserved(p.labels)
	return obs, len(p.labels) - obs
}

// countObserved counts the pairs labelled performed-as-observed, without
// a branch per label.
func countObserved(labels []bool) (obs int) {
	for _, l := range labels {
		obs += int(bitset.B2u(l))
	}
	return obs
}

// pairSet is the related pairs of one enumeration round where the walks
// left them: the specs' validated results, adopted in spec order and
// never concatenated — the samplers read a related set once, in order —
// plus the class counts summed while validating. Iterating chunks in
// order visits exactly the pairs, in exactly the order, of the flat
// concatenation.
type pairSet struct {
	chunks     []EnumResult
	nObs, nExp int
	// pooled marks chunks whose planes came from resultPool (the local
	// executor's) and return to it on release.
	pooled bool
}

func (ps *pairSet) len() int { return ps.nObs + ps.nExp }

// adoptResults validates one round's enumeration results against an
// n-record log and adopts them as a pair set.
func adoptResults(results []EnumResult, n int, pooled bool) (*pairSet, error) {
	ps := &pairSet{chunks: results, pooled: pooled}
	for si := range results {
		r := &results[si]
		if len(r.RefA) != len(r.RefB) || len(r.RefA) != len(r.Labels) {
			return nil, fmt.Errorf("core: shard %d returned ragged enumeration result", si)
		}
		if !inRange(r.RefA, n) || !inRange(r.RefB, n) {
			return nil, fmt.Errorf("core: shard %d returned pair outside the %d-record log", si, n)
		}
		obs := countObserved(r.Labels)
		ps.nObs += obs
		ps.nExp += len(r.Labels) - obs
	}
	return ps, nil
}

// flatten copies the set into fresh planes; nothing in the result aliases
// a chunk, so it outlives release.
func (ps *pairSet) flatten() *pairPlanes {
	out := newPairPlanes(ps.len())
	for ci := range ps.chunks {
		c := &ps.chunks[ci]
		out.a = append(out.a, c.RefA...)
		out.b = append(out.b, c.RefB...)
		out.labels = append(out.labels, c.Labels...)
	}
	return out
}

// release ends the set's life: pooled planes go back for the next round's
// walks, and the set forgets its chunks. Everything read from the set —
// samples, counts — must have been copied out first, which the samplers
// and flatten do.
func (ps *pairSet) release() {
	if ps.pooled {
		for ci := range ps.chunks {
			resultPool.Put(&ps.chunks[ci])
		}
	}
	ps.chunks = nil
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
// every ordered pair of every group groupByClasses builds — members are
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
	groups, keepP = blockedGroupsOpt(log, despite, maxPairs, true)
	return groups, keepP, residualDespite(log, despite)
}

// blockedGroupsOpt is blockedGroups with seek-driven row filtering
// switchable (test oracles run with it off; the planners always run with
// it on). keepP is computed over the UNFILTERED candidate pair count
// before any row is dropped: filtered rows contribute no
// despite-satisfying pair, so the cut does not change the probability.
// What it does to the surviving pairs' fates depends on the thinning
// regime walkTiles picks from keepP (see skipKeepP): at or above the
// crossover a keep decision is a pure function of (seed, i, j) and the
// output is byte-identical; below it the decision is a pure function of
// (seed, i, j's position among its group's members), and seek filtering
// — which renumbers positions inside a group — yields a different,
// equally valid iid Bernoulli(keepP) thinning of the same related set.
func blockedGroupsOpt(log *joblog.Log, despite pxql.Predicate, maxPairs int, seek bool) (groups [][]int, keepP float64) {
	plan := candidateGroups(log, despite)
	groups, keepP = plan.groups, 1.0
	if maxPairs > 0 && plan.total > uint64(maxPairs) {
		keepP = float64(maxPairs) / float64(plan.total)
	}
	if !seek {
		return groups, keepP
	}
	// groups may be the view's memoized plan, shared with every other
	// query over it: the cut builds its own list and leaves its input as
	// it found it.
	if s := newRowSeeker(log, despite); s != nil {
		kept := make([][]int, 0, len(groups))
		for _, g := range groups {
			// A filtered row can be neither side of a satisfying pair,
			// and an ordered pair needs two distinct surviving rows.
			if g = s.filter(g); len(g) >= 2 {
				kept = append(kept, g)
			}
		}
		groups = kept
	}
	return groups, keepP
}

// blockPlan is the blocked candidate space of one blocking-column tuple
// over a whole view: the un-seeked groups and their ordered pair count.
// Memoized values are shared between queries and read-only.
type blockPlan struct {
	groups [][]int
	// total is the candidate ordered pair count the subsampling
	// probability is taken over — always the full candidate space, never
	// the seek-filtered one. Saturating uint64: huge synthetic logs
	// overflow an int product.
	total uint64
}

// blockPlanKey memoizes a blockPlan on the columnar view under the
// blocking-column tuple (four little-endian bytes per schema index, in
// clause order) — beside the classes, sorted indexes and equal-row
// bitmaps it is built from, and with their lifetime: it dies with the
// view at the next watermark.
type blockPlanKey string

// candidateGroups blocks the candidate records of (log, despite) and
// counts their ordered pairs. With no base-equality prefilter the
// candidates are every record and the plan depends on the blocking tuple
// alone, so it is built once per view; a prefiltered plan is built per
// query from its own candidate list.
func candidateGroups(log *joblog.Log, despite pxql.Predicate) blockPlan {
	cols := log.Columns()
	blockIdx := blockIndexes(log, despite)
	// Resolved before entering Memo: numeric classes are themselves
	// memoized, and a Memo builder must not re-enter it.
	bcs := make([]blockClasses, len(blockIdx))
	for c, f := range blockIdx {
		bcs[c] = blockClassesOf(cols, f)
	}
	if recs, filtered := candidateRecords(log, despite); filtered {
		return newBlockPlan(bcs, recs)
	}
	return cols.Memo(blockKey(blockIdx), func() any {
		recs := make([]int, cols.Len())
		for i := range recs {
			recs[i] = i
		}
		return newBlockPlan(bcs, recs)
	}).(blockPlan)
}

// blockKey encodes a blocking-column tuple as its memo key.
func blockKey(blockIdx []int) blockPlanKey {
	key := make([]byte, 0, 4*len(blockIdx))
	for _, f := range blockIdx {
		key = append(key, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
	}
	return blockPlanKey(key)
}

func newBlockPlan(bcs []blockClasses, recs []int) blockPlan {
	p := blockPlan{groups: groupByClasses(bcs, recs)}
	for _, g := range p.groups {
		p.total = satAdd64(p.total, pairCount64(len(g)))
	}
	return p
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
// the planes, which is exactly what the issame code compares.
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

// groupByClasses groups recs by their class tuple over bcs, in
// first-appearance order; unblockable records are dropped. The tuple is
// refined one column at a time — level c maps (group id at level c−1,
// class in column c) to a dense id in first-appearance order — so a key
// is one fixed-width word whatever the column count, distinct tuples can
// never alias, and the last level's id is the group index. No columns at
// all yield the single "no blocking" group.
func groupByClasses(bcs []blockClasses, recs []int) [][]int {
	levels := make([]map[uint64]int32, len(bcs))
	for c := range levels {
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
// seek filtering did to the pair's group.
func keepPair(seed uint64, i, j int, keepP float64) bool {
	if keepP >= 1 {
		return true
	}
	return stats.KeepFloat(seed, uint64(i)<<32|uint64(uint32(j))) < keepP
}

// skipKeepP is the keep probability below which walkTiles stops hashing
// every candidate pair and draws the gaps between kept pairs instead
// (skip.go). A gap costs a hash and a table lookup per KEPT pair, keepPair
// a hash per CANDIDATE pair. A constant, not an option: it selects
// between two exact samplers of the same distribution from a value the
// walk already has.
const skipKeepP = 1.0 / 8

// skipSampled reports whether a Bernoulli walk under keepP takes the
// skip path. Non-positive and NaN probabilities (wire input
// only — the planner's keepP is in (0, 1]) stay on the dense path, where
// keepPair keeps nothing.
func skipSampled(keepP float64) bool { return keepP > 0 && keepP < skipKeepP }

// pairBlock is the tile size of batched pair evaluation: 4096 pairs = 64
// selection-bitmap words, small enough that a tile's index arrays,
// bitmaps and the column-plane cells they touch stay cache-resident
// while every clause scans it.
const pairBlock = 4096

// candidateRecords applies base-feature equality prefilters from the
// despite clause and returns surviving record indices; filtered is false,
// and every record a candidate, when the clause has none. Each filter
// column seeks its matching row run in the per-column sorted index
// (plane equality is boxed equality there) and the runs intersect as
// bitmaps, with Value.Equal semantics: missing cells match nothing, a
// missing or kind-mismatched or never-logged constant matches no record.
func candidateRecords(log *joblog.Log, despite pxql.Predicate) (recs []int, filtered bool) {
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
	if len(filters) == 0 {
		return nil, false
	}
	n := log.Len()
	cols := log.Columns()
	// Each atom's equality bitmap is memoized on the columnar view (see
	// joblog.EqualRowsBitmap), so repeated despite clauses scan each
	// plane once per watermark. The memoized bitmaps are shared:
	// intersect into a private copy.
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
	return out, true
}

// balancedRates is the paper's Section 4.3 rule: keep each example with
// probability m/(2·classSize), yielding ≈m/2 of each class in
// expectation. A wildly unbalanced related set therefore cannot trick the
// scorer into accepting the empty explanation. The rule applies even when
// the related set is smaller than m: balance, not just volume, is the
// point — the minority class is always kept in full while an oversized
// majority is thinned toward it.
func balancedRates(nObs, nExp int64, m int) (pObs, pExp float64) {
	pObs, pExp = 1.0, 1.0
	if nObs > 0 {
		pObs = minf(1, float64(m)/(2*float64(nObs)))
	}
	if nExp > 0 {
		pExp = minf(1, float64(m)/(2*float64(nExp)))
	}
	// Below the size budget, thin only the majority class down toward the
	// minority so small related sets still train balanced.
	if nObs+nExp <= int64(m) {
		pObs, pExp = 1, 1
		switch {
		case nObs > 2*nExp && nExp > 0:
			pObs = 2 * float64(nExp) / float64(nObs)
		case nExp > 2*nObs && nObs > 0:
			pExp = 2 * float64(nObs) / float64(nExp)
		}
	}
	return pObs, pExp
}

// balancedSample draws a walked related set's balanced sample: one
// rng.Float64 per pair against its class's balancedRates probability.
func balancedSample(ps *pairSet, m int, rng *rand.Rand) *pairPlanes {
	if m <= 0 {
		return ps.flatten()
	}
	nObs, nExp := int64(ps.nObs), int64(ps.nExp)
	pObs, pExp := balancedRates(nObs, nExp, m)
	// Presized to the expected draw plus four standard deviations of
	// slack, so the appends below all but never regrow.
	out := newPairPlanes(expectedDraw(nObs, pObs, nExp, pExp))
	for ci := range ps.chunks {
		c := &ps.chunks[ci]
		for i, l := range c.Labels {
			p := pExp
			if l {
				p = pObs
			}
			if rng.Float64() < p {
				out.add(c.RefA[i], c.RefB[i], l)
			}
		}
	}
	return out
}

// expectedDraw bounds the size of an independent-keep draw of nObs pairs
// at pObs and nExp pairs at pExp: the mean plus four standard deviations,
// capped at the population.
func expectedDraw(nObs int64, pObs float64, nExp int64, pExp float64) int {
	mean := float64(nObs)*pObs + float64(nExp)*pExp
	return int(min(nObs+nExp, int64(mean+4*math.Sqrt(mean))+1))
}

// matrixFree holds one idle pair matrix between explanations: a
// 2 000-pair sample's stores and the gather scratch FillSample keeps
// with them (one column buffer per fill worker) are some 0.8 MB over the
// 27 000-job benchmark log (1.8 MB while the gather kept every raw
// column's cells). One slot, not a sync.Pool: a pool keeps a private
// slot per processor, and a second idle matrix is a sizeable share of
// what a server over a small log holds in all (peak RSS on the 540-job
// sweep: +19 % with a pool, +10 % with one slot, when matrices were
// 2.4 MB). Explanations running beside the one that took the slot
// allocate their own and drop them.
var matrixFree = make(chan *features.PairMatrix, 1)

// putMatrix returns a matrix nothing reads any more to the free slot.
func putMatrix(m *features.PairMatrix) {
	select {
	case matrixFree <- m:
	default:
	}
}

// materialize computes the derived feature vectors for the sample into
// a pair matrix with features' gathered fill, on up to workers
// goroutines; each cell and word has one writer, so the result is
// identical at every worker count. want is the explanation's scorable
// mask (Explainer.scorableMask): a column of a feature outside it is
// never read — scoring skips the feature, so no candidate atom reads it
// either — and is not written, which on the benchmark's logs spares about
// three quarters of the numeric base columns. The matrix is the idle one
// when there is one — the steady-state fill path performs no allocation
// per pair — and the caller hands it to putMatrix once nothing reads it
// any more.
func materialize(log *joblog.Log, d *features.Deriver, ps *pairPlanes, want bitset.Set, workers int) *features.PairMatrix {
	var m *features.PairMatrix
	select {
	case m = <-matrixFree:
	default:
		m = new(features.PairMatrix)
	}
	d.ReshapePairMatrix(m, ps.len())
	m.FillSample(log.Columns(), ps.a, ps.b, want, workers)
	return m
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
