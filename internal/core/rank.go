package core

// The rank sampler: Section 4.3's balanced sample drawn straight from
// Definition 7's related set, without walking it. It serves the question
// shape every template, example and harness asks — observed and expected
// are each one `<T>_compare = C` atom on one numeric column, and blocking
// proves the whole despite clause — whenever every member of every
// blocking group carries a present, finite, strictly positive T cell.
//
// Inside a group sorted by (T value, record index), stats.Similar's
// betweenness (TestSimilarBetween) gives each member's partners a fixed
// shape: the GT partners (dissimilar and smaller) are a prefix, the SIM
// partners one window around the member, the LT partners a suffix, and
// the window's edges never move left as the member's rank grows
// (TestCompareWindowsMonotone). One two-pointer sweep per group therefore
// counts every member's partners of each code exactly. Laid end to end in
// (group, rank) order, a class's pairs form a rank space [0, n): rank r
// is partner r − cum[k] of the member k whose prefix sums hold it, so a
// draw is a binary search, not a walk.
//
// The draw applies §4.3's keep rule to the exact class counts and thins
// each class's rank space with the integer skip sampler (skip.go), so
// the sample is an iid Bernoulli thinning per class, runs on the
// coordinator alone (its two classes on up to two cores), and is the
// same at every parallelism, spec count, executor and seal boundary by
// construction. Everything else — seek and zone templates, residual
// despite conjuncts, multi-atom outcome clauses, non-positive targets —
// keeps the walk (Explainer.enumeratePairs).

import (
	"math"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
)

// rankKey memoizes one (blocking tuple, target column) rank layout on the
// columnar view, beside the block plan it is cut from.
type rankKey struct {
	block  blockPlanKey
	target int
}

// rankGroups is the memoized rank layout of one blocking tuple and target
// column over a view: every group of two or more members, sorted by
// (target value, record index), end to end. It is query-independent and
// read-only once built.
type rankGroups struct {
	// ok is false when some grouped member's target cell is missing,
	// non-finite or non-positive: the shape is then not drawable.
	ok      bool
	members []int
	// lo and hi bound member k's SIM window [lo[k], hi[k]) in members;
	// k lies inside it. Its GT partners sit just below lo, its LT partners
	// from hi on.
	lo, hi []int32
	// cum[c][k] counts the partners of compare code c (features.SymLT,
	// SymSIM, SymGT) of members[:k]; len(members)+1 entries each. A class
	// of one group of n members holds up to n·(n−1) pairs, past 2³¹ from
	// n ≈ 46 000, so counts and ranks are int64 on every GOARCH.
	cum [3][]int64
}

// newRankGroups sorts the plan's groups by the target column through its
// sorted index and sweeps each group once for the members' windows.
func newRankGroups(plan blockPlan, col *joblog.Col, ix *joblog.ColIndex, n int) *rankGroups {
	if col.Kind != joblog.Numeric {
		return &rankGroups{}
	}
	gid := make([]int32, n)
	for i := range gid {
		gid[i] = -1
	}
	start := []int{0} // start[g] is group g's first slot in members
	for _, g := range plan.groups {
		if len(g) < 2 {
			continue // no pairs
		}
		for _, r := range g {
			gid[r] = int32(len(start) - 1)
		}
		start = append(start, start[len(start)-1]+len(g))
	}
	total := start[len(start)-1]
	rg := &rankGroups{members: make([]int, total)}
	vals := make([]float64, total)
	next := append([]int(nil), start[:len(start)-1]...)
	// Perm lists present non-NaN cells by (value, row): appending in its
	// order sorts every group at once.
	for _, r := range ix.Perm {
		g := gid[r]
		if g < 0 {
			continue
		}
		x := col.Num[r]
		if !(x > 0) || math.IsInf(x, 1) {
			return &rankGroups{}
		}
		rg.members[next[g]], vals[next[g]] = int(r), x
		next[g]++
	}
	for g, k := range next {
		if k != start[g+1] {
			return &rankGroups{} // a member's cell is missing or NaN
		}
	}

	rg.lo, rg.hi = make([]int32, total), make([]int32, total)
	for c := range rg.cum {
		rg.cum[c] = make([]int64, total+1)
	}
	for g := 0; g+1 < len(start); g++ {
		s, e := start[g], start[g+1]
		lo, hi := s, s
		for k := s; k < e; k++ {
			x := vals[k]
			// Every value is positive and finite, and vals[lo] <= x <=
			// vals[hi], so CompareNum's band (stats.Similar: |a−b| <=
			// 0.1·max(|a|, |b|)) reads, to the bit, x − vals[lo] <= 0.1·x
			// below and vals[hi] − x <= 0.1·vals[hi] above: the rounded
			// difference of two floats is the negation of the reverse
			// one. lo stops at k at the latest.
			for x-vals[lo] > 0.10*x {
				lo++
			}
			hi = max(hi, k+1)
			for hi < e && vals[hi]-x <= 0.10*vals[hi] {
				hi++
			}
			rg.lo[k], rg.hi[k] = int32(lo), int32(hi)
			w := [3]int64{features.SymLT: int64(e - hi), features.SymSIM: int64(hi - lo - 1), features.SymGT: int64(lo - s)}
			for c := range rg.cum {
				rg.cum[c][k+1] = rg.cum[c][k] + w[c]
			}
		}
	}
	rg.ok = true
	return rg
}

// rankSpace is one question's related set in rank form: the view's
// layout plus the compare codes of its two classes and their exact sizes.
type rankSpace struct {
	rg         *rankGroups
	code       [2]uint64 // compare code of the observed (0) and expected (1) class
	nObs, nExp int64
}

// compareCode recognises an outcome clause of exactly one
// `<raw>_compare = LT|SIM|GT` atom over a numeric raw column.
func compareCode(log *joblog.Log, p pxql.Predicate) (raw int, code uint64, ok bool) {
	if len(p) != 1 || p[0].Op != pxql.OpEq {
		return 0, 0, false
	}
	name, kind := features.ParseName(p[0].Feature)
	raw, ok = log.Schema.Index(name)
	if !ok || kind != features.Compare || log.Schema.Field(raw).Kind != joblog.Numeric {
		return 0, 0, false
	}
	switch p[0].Value {
	case features.ValLT:
		return raw, features.SymLT, true
	case features.ValSIM:
		return raw, features.SymSIM, true
	case features.ValGT:
		return raw, features.SymGT, true
	}
	return 0, 0, false
}

// rankSpaceOf is the one eligibility decision of the rank sampler: it
// returns the rank form of (q, despite)'s related set, or nil when the
// question must be walked. Eligible means observed and expected are
// single compare atoms with distinct codes on one numeric column T, the
// despite clause leaves no residual after blocking (so it holds no base
// prefilter either, and no group can be seek-filtered), and
// every member of a group of two or more has a present, finite, strictly
// positive T cell.
func rankSpaceOf(log *joblog.Log, q *pxql.Query, despite pxql.Predicate) *rankSpace {
	tObs, cObs, ok := compareCode(log, q.Observed)
	if !ok {
		return nil
	}
	tExp, cExp, ok := compareCode(log, q.Expected)
	if !ok || tExp != tObs || cExp == cObs || len(residualDespite(log, despite)) > 0 {
		return nil
	}
	cols := log.Columns()
	// Resolved before entering Memo, whose builders must not re-enter it.
	plan := candidateGroups(log, despite)
	ix := cols.SortedIndex(tObs)
	rg := cols.Memo(rankKey{blockKey(blockIndexes(log, despite)), tObs}, func() any {
		return newRankGroups(plan, cols.Col(tObs), ix, cols.Len())
	}).(*rankGroups)
	if !rg.ok {
		return nil
	}
	n := len(rg.members)
	return &rankSpace{rg: rg, code: [2]uint64{cObs, cExp}, nObs: rg.cum[cObs][n], nExp: rg.cum[cExp][n]}
}

// sample draws Section 4.3's balanced sample of m pairs in expectation:
// each class's rank space thinned at its keep rate, observed then
// expected, each in rank order. The two classes are drawn concurrently on
// up to workers goroutines, each from its own skip stream and table into
// its own list; the expected list is appended to the observed one, so the
// sample is the serial draw's at every worker count.
func (rs *rankSpace) sample(m int, seed uint64, workers int) *pairPlanes {
	pObs, pExp := balancedRates(rs.nObs, rs.nExp, m)
	n, p := [2]int64{rs.nObs, rs.nExp}, [2]float64{pObs, pExp}
	outs := [2]*pairPlanes{
		newPairPlanes(expectedDraw(rs.nObs, pObs, rs.nExp, pExp)),
		newPairPlanes(expectedDraw(rs.nExp, pExp, 0, 0)),
	}
	par.Do(2, workers, func(c int) { rs.draw(outs[c], c, n[c], p[c], seed, new(skipTable)) })
	out, exp := outs[0], outs[1]
	out.a, out.b = append(out.a, exp.a...), append(out.b, exp.b...)
	out.labels = append(out.labels, exp.labels...)
	return out
}

// draw appends class c's kept ranks of [0, n) as labelled record pairs:
// every rank at p >= 1, otherwise the ranks the class's skip stream keeps.
func (rs *rankSpace) draw(out *pairPlanes, c int, n int64, p float64, seed uint64, tab *skipTable) {
	rg, code := rs.rg, rs.code[c]
	cum := rg.cum[code]
	k := 0
	take := func(r int64) {
		// Ranks arrive ascending and the next member is usually a few
		// steps on: gallop from the last member to bracket the one
		// holding r (the first j >= k with cum[j+1] > r), then bisect
		// the bracket.
		lo, hi := k, len(cum)-1
		for step := 1; lo+step-1 < hi; step <<= 1 {
			if j := lo + step - 1; cum[j+1] > r {
				hi = j
				break
			}
			lo += step
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cum[mid+1] > r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		k = lo
		// Member k's partners of one code are fewer than the members.
		o := int(r - cum[k])
		var at int
		switch code {
		case features.SymGT:
			at = int(rg.lo[k]) - int(cum[k+1]-cum[k]) + o
		case features.SymSIM:
			if at = int(rg.lo[k]) + o; at >= k {
				at++ // the member is not its own partner
			}
		default:
			at = int(rg.hi[k]) + o
		}
		out.add(rg.members[k], rg.members[at], c == 0)
	}
	if p >= 1 {
		for r := int64(0); r < n; r++ {
			take(r)
		}
		return
	}
	tab.build(skipQuantum(p))
	st := newSkipStream(seed, c, tab)
	for r := int64(0); ; r++ {
		gap, ok := st.next(n - r)
		if !ok {
			return
		}
		r += gap
		take(r)
	}
}
