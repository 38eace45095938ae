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
	"math/bits"
	"math/rand"
	"sort"
	"strconv"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// pairRef is an ordered pair of record indices into the log.
type pairRef struct {
	a, b int
}

// pairSet is a labelled collection of related pairs. label true means the
// pair performed as observed.
type pairSet struct {
	refs   []pairRef
	labels []bool
}

// blockIndexes extracts the raw schema indices of despite conjuncts of
// the form <raw>_issame = T, the blocking keys of pair enumeration.
func blockIndexes(log *joblog.Log, despite pxql.Predicate) []int {
	var blockIdx []int
	for _, a := range despite {
		raw, kind := features.ParseName(a.Feature)
		if kind != features.IsSame || a.Op != pxql.OpEq || a.Value != features.ValT {
			continue
		}
		if i, ok := log.Schema.Index(raw); ok {
			blockIdx = append(blockIdx, i)
		}
	}
	return blockIdx
}

// blockedGroups blocks the candidate records of (log, despite) into
// groups — the single definition of the blocked pair space behind both
// walk planners (PlanEnumShards, PlanEvalShards), so training
// enumeration and explanation evaluation can never drift on blocking,
// group order or the subsampling probability. Groups are returned in
// first-appearance order over the record list; keepP is the
// Bernoulli keep probability implied by maxPairs over the candidate
// ordered-pair count. The construction is a pure function of the record
// list (the memoized columnar view it reads is itself rebuilt
// deterministically from the records), so repeated calls — before or
// after any cache invalidation — produce identical groups.
func blockedGroups(log *joblog.Log, despite pxql.Predicate, maxPairs int) (groups [][]int, keepP float64) {
	return blockedGroupsOpt(log, despite, maxPairs, true, true)
}

// blockedGroupsOpt is blockedGroups with zone-map group pruning and
// seek-driven row filtering switchable (test oracles and benchmark
// denominators run with either or both off; stratified planning must
// disable seek — see seek.go). keepP is computed over the UNPRUNED,
// UNFILTERED candidate pair count before any group is dropped or
// thinned: pruned groups and filtered rows contribute no
// despite-satisfying pair and each keep decision is a pure function of
// (seed, i, j), so neither cut changes the probability or any surviving
// pair's fate — enumeration output is byte-identical either way.
func blockedGroupsOpt(log *joblog.Log, despite pxql.Predicate, maxPairs int, prune, seek bool) (groups [][]int, keepP float64) {
	recs := candidateRecords(log, despite)
	blockIdx := blockIndexes(log, despite)

	byKey := make(map[string]int) // key -> index into groups
	var keyBuf []byte
	for _, ri := range recs {
		key, ok := appendBlockKey(keyBuf[:0], log.Records[ri], blockIdx)
		keyBuf = key
		if !ok {
			continue // missing blocking value can never satisfy isSame = T
		}
		gi, seen := byKey[string(key)] // no alloc: string(key) only escapes below
		if !seen {
			gi = len(groups)
			byKey[string(key)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], ri)
	}

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

// pairCount64 is a group's ordered-pair count n·(n−1) computed with
// uint64 saturation, so pair-space products on huge synthetic logs
// clamp instead of wrapping (they only feed probabilities and budget
// proportions, where MaxUint64 is an honest "effectively infinite").
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

// clampInt converts a saturating uint64 count back to a non-negative
// int budget without wrapping.
func clampInt(x uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if x > uint64(maxInt) {
		return maxInt
	}
	return int(x)
}

// stratumFloor is the minimum pair budget a non-degenerate stratum
// receives, so thin blocking groups still contribute a usable estimate.
const stratumFloor = 16

// stratifyBudgets allocates a total pair budget across blocking groups
// proportionally to their ordered-pair mass, with a per-stratum floor. A
// group allocated at least three quarters of its pairs is taken whole:
// near-exhaustive draws cost more bookkeeping than just walking the
// group (this also absorbs groups smaller than the floor). A
// non-positive budget, or one covering the whole space, keeps every
// pair. The allocation is pure integer arithmetic over the group sizes,
// so every shard and process computes identical budgets.
func stratifyBudgets(groups [][]int, budget int) []int {
	bs := make([]int, len(groups))
	var total uint64
	for _, g := range groups {
		total = satAdd64(total, pairCount64(len(g)))
	}
	for gi, g := range groups {
		m := pairCount64(len(g))
		if budget <= 0 || total <= uint64(budget) {
			bs[gi] = clampInt(m)
			continue
		}
		hi, lo := bits.Mul64(uint64(budget), m)
		b, _ := bits.Div64(hi, lo, total)
		if b < stratumFloor {
			b = stratumFloor
		}
		// b >= ceil(3m/4), the overflow-free form of 4·b >= 3·m.
		if b >= m-m/4 {
			b = m
		}
		bs[gi] = clampInt(b)
	}
	return bs
}

// groupDraws draws budget distinct flat pair indices from a group's
// n·(n−1) ordered-pair space: one splitmix counter stream per group,
// seeded from the enumeration seed and g0 — the group's first member's
// global record index, which every shard straddling the group agrees on.
// The result is sorted ascending, so iterating it visits pairs in the
// exact walk's (outer position, inner position) order restricted to the
// drawn set. A pure function of (seed, g0, n, budget): every shard,
// process and worker count derives the identical draw set.
func groupDraws(seed uint64, g0, n, budget int) []uint64 {
	m := pairCount64(n)
	if budget <= 0 || m == 0 {
		return []uint64{}
	}
	gseed := stats.SplitMix64(seed ^ (uint64(g0)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909))
	drawn := make(map[uint64]struct{}, budget)
	ts := make([]uint64, 0, budget)
	// Rejection-sample the counter stream; the bound keeps pathological
	// near-exhaustive budgets from spinning on duplicates.
	ctrMax := satAdd64(satAdd64(m, m), satAdd64(satAdd64(m, m), 64))
	for ctr := uint64(0); len(ts) < budget && ctr < ctrMax; ctr++ {
		t := stats.SplitMix64(gseed+ctr) % m
		if _, dup := drawn[t]; dup {
			continue
		}
		drawn[t] = struct{}{}
		ts = append(ts, t)
	}
	// Deterministic fill if rejection ran out of its counter allowance.
	for t := uint64(0); t < m && len(ts) < budget; t++ {
		if _, dup := drawn[t]; !dup {
			drawn[t] = struct{}{}
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	return ts
}

// keepPair is the counter-based Bernoulli subsampling decision for the
// ordered record pair (i, j): a pure function of the seed and the pair,
// so the decision is identical whichever shard or goroutine evaluates it.
func keepPair(seed uint64, i, j int, keepP float64) bool {
	if keepP >= 1 {
		return true
	}
	return stats.KeepFloat(seed, uint64(i)<<32|uint64(uint32(j))) < keepP
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

// appendBlockKey renders a record's blocking tuple into dst (reused
// between records — callers pass dst[:0] of a scratch buffer, so the
// steady state allocates nothing per record). Each value is
// length-prefixed so distinct tuples can never alias, whatever bytes
// the values contain. ok is false when a blocking value is missing: such
// a record can never satisfy isSame = T and is unblockable. An empty
// blockIdx renders the empty key with ok true — the single "no blocking"
// group.
func appendBlockKey(dst []byte, r *joblog.Record, blockIdx []int) (key []byte, ok bool) {
	var num [32]byte
	for _, i := range blockIdx {
		v := r.Values[i]
		if v.IsMissing() {
			return dst[:0], false
		}
		if v.Kind == joblog.Numeric {
			s := strconv.AppendFloat(num[:0], v.Num, 'g', -1, 64)
			dst = strconv.AppendInt(dst, int64(len(s)), 10)
			dst = append(dst, ':')
			dst = append(dst, s...)
		} else {
			dst = strconv.AppendInt(dst, int64(len(v.Str)), 10)
			dst = append(dst, ':')
			dst = append(dst, v.Str...)
		}
	}
	return dst, true
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
	nObs, nExp := 0, 0
	for _, l := range ps.labels {
		if l {
			nObs++
		} else {
			nExp++
		}
	}
	pObs, pExp := 1.0, 1.0
	if nObs > 0 {
		pObs = minf(1, float64(m)/(2*float64(nObs)))
	}
	if nExp > 0 {
		pExp = minf(1, float64(m)/(2*float64(nExp)))
	}
	// Below the size budget, thin only the majority class down toward the
	// minority so small related sets still train balanced.
	if len(ps.refs) <= m {
		pObs, pExp = 1, 1
		switch {
		case nObs > 2*nExp && nExp > 0:
			pObs = 2 * float64(nExp) / float64(nObs)
		case nExp > 2*nObs && nObs > 0:
			pExp = 2 * float64(nObs) / float64(nExp)
		}
	}
	out := &pairSet{}
	for i, ref := range ps.refs {
		p := pExp
		if ps.labels[i] {
			p = pObs
		}
		if rng.Float64() < p {
			out.refs = append(out.refs, ref)
			out.labels = append(out.labels, ps.labels[i])
		}
	}
	return out
}

// uniformSample ignores class balance — kept for the ablation benchmark
// showing why Section 4.3's balancing matters.
func uniformSample(ps *pairSet, m int, rng *rand.Rand) *pairSet {
	if m <= 0 || len(ps.refs) <= m {
		return ps
	}
	p := float64(m) / float64(len(ps.refs))
	out := &pairSet{}
	for i, ref := range ps.refs {
		if rng.Float64() < p {
			out.refs = append(out.refs, ref)
			out.labels = append(out.labels, ps.labels[i])
		}
	}
	return out
}

// materialize computes the derived feature vectors for the pair set into
// a flat pair matrix, fanned out across workers; each row is written by
// exactly one goroutine, so the result is identical at every worker
// count. The planes are allocated once up front — the steady-state fill
// path performs zero allocations per pair.
func materialize(log *joblog.Log, d *features.Deriver, ps *pairSet, workers int) *features.PairMatrix {
	cols := log.Columns()
	m := d.NewPairMatrix(len(ps.refs))
	par.Do(len(ps.refs), workers, func(i int) {
		ref := ps.refs[i]
		m.Fill(cols, i, ref.a, ref.b)
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
