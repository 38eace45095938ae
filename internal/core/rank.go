package core

// The rank sampler: Section 4.3's balanced sample drawn straight from
// Definition 7's related set, without walking it. It serves the question
// shape every template, example and harness asks — observed and expected
// are each one `<T>_compare = C` atom on one numeric column, and the
// despite clause is blocking plus row filters — whenever every member of
// every layout group carries a present, finite, strictly positive T cell.
//
// A row filter is a base conjunct the layout proves without a walk. A
// base equality `<raw> = c` is candidateRecords' prefilter: it keeps the
// rows whose cell equals c, and any two of them derive c. A numeric
// `<raw> <op> c` with op one of <, <=, >, >= (baseRangeOf) holds on a
// pair exactly when both cells are present, equal and inside the range:
// an equality block plus a row filter. A filtered layout cuts each
// block group to the rows inside every range and splits it by the exact
// values of the range columns (−0 and +0 are equal, so they share a
// class; NaN and missing cells fall outside every range). Any other
// residual — `!=`, compare and issame atoms, blocking on a loose SIM
// chain — keeps the walk.
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
// draw is a binary search, not a walk — the exact-weight join sample of
// Chaudhuri, Motwani & Narasayya (SIGMOD 1999).
//
// The draw applies §4.3's keep rule to the exact class counts and thins
// each class's rank space with the integer skip sampler (skip.go), so
// the sample is an iid Bernoulli thinning per class, runs on the
// coordinator alone (its two classes on up to two cores), and is the
// same at every parallelism, spec count, executor and seal boundary by
// construction. Everything else — other residual despite conjuncts,
// multi-atom outcome clauses, non-positive targets — keeps the walk
// (Explainer.enumeratePairs), which also serves Evaluate and
// RelatedPairsP for every shape.
//
// A layout is memoized on the columnar view under (blocking tuple,
// target, canonical row filters) and dies with the view at the next
// watermark. Filter constants come from the question, so a view keeps at
// most maxFilteredLayouts filtered layouts; a question past them builds
// its own.

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
)

// rankKey names one rank layout of a view, beside the block plan it is
// cut from: the blocking tuple, the target column and the row filters'
// canonical key ("" for none).
type rankKey struct {
	block  blockPlanKey
	target int
	rows   string
}

// maxFilteredLayouts bounds the layouts with row filters that one view
// memoizes. Their keys carry the question's constants, so a client asking
// `blocksize > c` for c after c would otherwise leave a layout per
// constant resident until the next watermark; a question past the bound
// builds its layout for itself. Unfiltered layouts are bounded by the
// schema, like the block plans they are cut from.
const maxFilteredLayouts = 16

// rankLayoutsKey memoizes a view's rankLayouts.
type rankLayoutsKey struct{}

// rankLayouts is a view's rank layout memo. It lives in one Columns.Memo
// entry and hands out slots; the first question to reach a slot builds
// its layout under once, outside both locks, because the build reads the
// view's other memos (block plan, classes, equality bitmaps) and a Memo
// builder must not re-enter Memo. A warm question therefore pays two
// lookups.
type rankLayouts struct {
	mu       sync.Mutex
	slots    map[rankKey]*rankSlot
	filtered int // slots whose key has row filters
}

// rankSlot is one layout's memo entry.
type rankSlot struct {
	once sync.Once
	rg   *rankGroups
}

// slot returns key's slot, making it unless key has row filters and the
// view already holds maxFilteredLayouts of those: nil then, and the caller
// builds uncached.
func (l *rankLayouts) slot(key rankKey) *rankSlot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.slots[key]; ok {
		return s
	}
	if key.rows != "" {
		if l.filtered == maxFilteredLayouts {
			return nil
		}
		l.filtered++
	}
	if l.slots == nil {
		l.slots = make(map[rankKey]*rankSlot)
	}
	s := new(rankSlot)
	l.slots[key] = s
	return s
}

// rankLayoutOf returns the layout of (despite, rows) over target column t,
// memoized on the view within maxFilteredLayouts.
func rankLayoutOf(log *joblog.Log, despite pxql.Predicate, rows rankRows, t int) *rankGroups {
	layouts := log.Columns().Memo(rankLayoutsKey{}, func() any { return new(rankLayouts) }).(*rankLayouts)
	s := layouts.slot(rankKey{blockKey(blockIndexes(log, despite)), t, rows.key})
	if s == nil {
		return newRankGroups(log, despite, rows, t)
	}
	s.once.Do(func() { s.rg = newRankGroups(log, despite, rows, t) })
	return s.rg
}

// rankGroups is the memoized rank layout of one blocking tuple, target
// column and set of row filters over a view: every group of two or more
// members, sorted by (target value, record index), end to end. It is
// query-independent and read-only once built.
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

// rankRows is the part of a despite clause the rank layout proves beyond
// blocking: its base equalities, which candidateGroups' prefilter applies,
// and its numeric ranges, which cut and split the groups.
type rankRows struct {
	ranges []baseRange
	// key renders every row filter canonically — sorted encodings of
	// (field, operator, constant bits) — or is "" when there is none.
	key string
}

// rankRowsOf classifies the despite residual blocking leaves: ok is false
// when some conjunct is not a row filter and the question must walk.
func rankRowsOf(log *joblog.Log, despite pxql.Predicate) (rows rankRows, ok bool) {
	residual := residualDespite(log, despite)
	if len(residual) == 0 {
		return rankRows{}, true
	}
	keys := make([]string, 0, len(residual))
	for _, a := range residual {
		raw, fam := features.ParseName(a.Feature)
		f, known := log.Schema.Index(raw)
		switch {
		case fam != features.Base || !known:
			return rankRows{}, false
		case a.Op == pxql.OpEq:
			// candidateGroups' prefilter
		default:
			r, ok := baseRangeOf(log, a)
			if !ok {
				return rankRows{}, false
			}
			rows.ranges = append(rows.ranges, r)
		}
		keys = append(keys, filterKey(f, a))
	}
	// The layout splits by the range columns in index order, so it is a
	// function of the key whichever clause order built it first.
	slices.SortFunc(rows.ranges, func(a, b baseRange) int { return a.f - b.f })
	slices.Sort(keys)
	rows.key = strings.Join(keys, "")
	return rows, true
}

// filterKey encodes one row filter as a fixed-layout string: field,
// operator, constant kind, then the constant's bits or its text.
func filterKey(f int, a pxql.Atom) string {
	b := binary.LittleEndian.AppendUint32(nil, uint32(f))
	b = append(b, byte(a.Op), byte(a.Value.Kind))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Value.Num))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Value.Str)))
	return string(append(b, a.Value.Str...))
}

// newRankGroups builds the layout of (despite, rows) over target column t.
// It lists each of the block plan's groups cut to the rows inside every
// range, in (target value, record index) order (byTarget), orders each
// group by the range columns' values with further stable radix passes
// (joblog.RadixSort), splits it where one changes, and sweeps every class
// of two or more members; with no range a class is a whole group.
// OrderKey folds −0 into +0 and == reads them as equal, so the two share
// a class.
func newRankGroups(log *joblog.Log, despite pxql.Predicate, rows rankRows, t int) *rankGroups {
	cols := log.Columns()
	col := cols.Col(t) // numeric: compareCode checked the schema
	cut, ends, ok := byTarget(candidateGroups(log, despite), cols, t, rows)
	if !ok {
		return &rankGroups{}
	}
	split := make([]*joblog.Col, len(rows.ranges))
	for i, r := range rows.ranges {
		split[i] = cols.Col(r.f)
	}
	// Every member is listed; only classes of one are left out.
	members, vals := make([]int, 0, len(cut)), make([]float64, 0, len(cut))
	start := []int{0}
	var keys []uint64
	for g := 0; g+1 < len(ends); g++ {
		rows := cut[ends[g]:ends[g+1]]
		for i := len(split) - 1; i >= 0; i-- {
			keys = keys[:0]
			for _, r := range rows {
				keys = append(keys, joblog.OrderKey(split[i].Num[r]))
			}
			rows = joblog.RadixSort(keys, rows)
		}
		for s, e := 0, 0; s < len(rows); s = e {
			for e = s + 1; e < len(rows) && sameCells(split, rows[s], rows[e]); e++ {
			}
			if e-s < 2 {
				continue // no pairs
			}
			for _, r := range rows[s:e] {
				x := col.Num[r]
				if col.Miss.Get(int(r)) || !(x > 0) || math.IsInf(x, 1) {
					return &rankGroups{}
				}
				members = append(members, int(r))
				vals = append(vals, x)
			}
			start = append(start, len(members))
		}
	}
	if len(members) < cap(members) {
		members = slices.Clone(members) // the layout outlives the build: keep no spare capacity
	}
	rg := &rankGroups{members: members}
	rg.sweep(vals, start)
	return rg
}

// sameCells reports whether rows a and b hold equal values in every
// column of split.
func sameCells(split []*joblog.Col, a, b int32) bool {
	for _, c := range split {
		if c.Num[a] != c.Num[b] {
			return false
		}
	}
	return true
}

// byTarget lists the rows of the plan's groups of two or more that lie
// inside every range, group after group — group g is cut[ends[g]:ends[g+1]]
// — each in (target value, record index) order; a group left with fewer
// than two rows is dropped.
//
// With no row filter every row of those groups is listed, in the order of
// target column t's sorted index. That index is memoized on the view, and
// a store's snapshot sorts only the rows past the store's prefix order,
// so a growing log pays for its tail: on 5 400 → 27 000 jobs growing by
// 540, the blocked layout of each new watermark took 1.0–1.2 ms through
// the index against 1.7–2.0 ms sorting the groups afresh (2-core box,
// medians of 120 watermarks, three alternations). The index skips missing
// and NaN cells, so a group it leaves short holds one, and ok is false.
//
// A filtered list sorts its survivors alone, by a radix pass over rows in
// record order, so a one-shot seek or zone question never sorts the view.
// A missing or NaN target sorts anywhere in its group; newRankGroups
// refuses the class holding it unless it is alone.
func byTarget(plan blockPlan, cols *joblog.Columns, t int, rows rankRows) (cut []int32, ends []int, ok bool) {
	ends = []int{0}
	if rows.key == "" {
		gid := make([]int32, cols.Len()) // the group of each row, −1 for none
		for i := range gid {
			gid[i] = -1
		}
		for _, g := range plan.groups {
			if len(g) < 2 {
				continue // no pairs
			}
			for _, r := range g {
				gid[r] = int32(len(ends) - 1)
			}
			ends = append(ends, ends[len(ends)-1]+len(g))
		}
		cut = make([]int32, ends[len(ends)-1])
		next := slices.Clone(ends[:len(ends)-1])
		for _, r := range cols.SortedIndex(t).Perm {
			if g := gid[r]; g >= 0 {
				cut[next[g]] = r
				next[g]++
			}
		}
		for g, k := range next {
			if k != ends[g+1] {
				return nil, nil, false
			}
		}
		return cut, ends, true
	}
	col := cols.Col(t)
	inside := func(r int) bool {
		for _, br := range rows.ranges {
			c := cols.Col(br.f)
			if c.Miss.Get(r) || !br.rng.Contains(c.Num[r]) {
				return false
			}
		}
		return true
	}
	var keys []uint64
	for _, g := range plan.groups {
		if len(g) < 2 {
			continue // no pairs
		}
		n := len(cut)
		for _, r := range g {
			if inside(r) {
				cut = append(cut, int32(r))
			}
		}
		if len(cut)-n < 2 {
			cut = cut[:n]
			continue
		}
		keys = keys[:0]
		for _, r := range cut[n:] {
			var k uint64
			if x := col.Num[r]; x == x {
				k = joblog.OrderKey(x)
			}
			keys = append(keys, k)
		}
		copy(cut[n:], joblog.RadixSort(keys, cut[n:]))
		ends = append(ends, len(cut))
	}
	return cut, ends, true
}

// sweep fills the windows and per-code prefix counts of the members laid
// out in groups [start[g], start[g+1]), whose target values vals are
// positive, finite and ascending inside each group, and marks the layout
// drawable.
func (rg *rankGroups) sweep(vals []float64, start []int) {
	total := len(vals)
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
// despite clause leaves no residual after blocking but row filters
// (rankRowsOf), and every member of a layout group of two or more has a
// present, finite, strictly positive T cell.
func rankSpaceOf(log *joblog.Log, q *pxql.Query, despite pxql.Predicate) *rankSpace {
	tObs, cObs, ok := compareCode(log, q.Observed)
	if !ok {
		return nil
	}
	tExp, cExp, ok := compareCode(log, q.Expected)
	if !ok || tExp != tObs || cExp == cObs {
		return nil
	}
	rows, ok := rankRowsOf(log, despite)
	if !ok {
		return nil
	}
	rg := rankLayoutOf(log, despite, rows, tObs)
	if !rg.ok {
		return nil
	}
	n := len(rg.members)
	return &rankSpace{rg: rg, code: [2]uint64{cObs, cExp}, nObs: rg.cum[cObs][n], nExp: rg.cum[cExp][n]}
}

// rankDraw is a rank draw's recycled state beside the sample it fills:
// the expected class's list and each class's skip table, which a draw at
// the previous question's keep rate finds already built.
type rankDraw struct {
	exp  pairPlanes
	tabs [2]skipTable
}

// sample draws Section 4.3's balanced sample of m pairs in expectation
// into out, which it returns: each class's rank space thinned at its keep
// rate, observed then expected, each in rank order. The two classes are
// drawn concurrently on up to workers goroutines, each from its own skip
// stream and table into its own list — the expected one rd.exp — and the
// expected list is appended to the observed one, so the sample is the
// serial draw's at every worker count.
func (rs *rankSpace) sample(out *pairPlanes, rd *rankDraw, m int, seed uint64, workers int) *pairPlanes {
	pObs, pExp := balancedRates(rs.nObs, rs.nExp, m)
	n, p := [2]int64{rs.nObs, rs.nExp}, [2]float64{pObs, pExp}
	out.reset(expectedDraw(rs.nObs, pObs, rs.nExp, pExp))
	rd.exp.reset(expectedDraw(rs.nExp, pExp, 0, 0))
	outs := [2]*pairPlanes{out, &rd.exp}
	par.Do(2, workers, func(c int) { rs.draw(outs[c], c, n[c], p[c], seed, &rd.tabs[c]) })
	exp := &rd.exp
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
