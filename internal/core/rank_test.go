package core

// Tests for the rank sampler (rank.go): the window structure it relies on
// is checked by brute force before anything is drawn from it, its draws
// follow §4.3's per-class Bernoulli law, and every shape it declines is
// walked exactly as before. Its exact counts and sample membership are
// checked against the naive oracle in checkOracle (oracle_test.go).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// windowValues draws n positive values built to sit on the SIM band's
// edges: exact duplicates, values a few ulps either side of an earlier
// value's 10 % boundaries (x·0.9 and x/0.9), near-band neighbours, and a
// log-uniform spread.
func windowValues(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, 0, n)
	for len(vals) < n {
		x := math.Exp(12*rng.Float64() - 4)
		if len(vals) > 0 {
			y := vals[rng.Intn(len(vals))]
			switch rng.Intn(4) {
			case 0:
				x = y
			case 1:
				x = y * 0.9
				if rng.Intn(2) == 0 {
					x = y / 0.9
				}
				dir := math.Inf(1)
				if rng.Intn(2) == 0 {
					dir = 0
				}
				for s := rng.Intn(4); s > 0; s-- {
					x = math.Nextafter(x, dir)
				}
			case 2:
				x = y * (1 + 0.25*(rng.Float64()-0.5))
			}
		}
		vals = append(vals, x)
	}
	return vals
}

// TestCompareWindowsMonotone pins the structure the rank sampler counts
// and draws by, against brute-force features.CompareNum over every pair:
// in (value, record) order each member's GT partners are a prefix of its
// group, its SIM partners (itself included) one window, its LT partners
// the suffix; both window edges are non-decreasing in the member's rank;
// and the memoized sweep's windows and per-code counts are exactly those.
func TestCompareWindowsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "g", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	despite := pxql.Predicate{{Feature: "g_issame", Op: pxql.OpEq, Value: features.ValT}}
	q := oracleQuery(despite)
	windows := 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(80)
		vals := windowValues(rng, n)
		nGroups := 1 + rng.Intn(3)
		log := joblog.NewLog(schema)
		var order []string            // groups in first-appearance order
		byGroup := map[string][]int{} // members in record order
		for i, x := range vals {
			g := fmt.Sprint("g", rng.Intn(nGroups))
			if _, ok := byGroup[g]; !ok {
				order = append(order, g)
			}
			byGroup[g] = append(byGroup[g], i)
			log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{joblog.Str(g), joblog.Num(x)}})
		}
		rs := rankSpaceOf(log, q, despite)
		if rs == nil {
			t.Fatalf("trial %d: positive blocked question is not rank-drawable", trial)
		}
		rg := rs.rg
		s := 0
		for _, g := range order {
			members := slices.Clone(byGroup[g])
			if len(members) < 2 {
				continue
			}
			slices.SortFunc(members, func(a, b int) int {
				if c := cmpFloat(vals[a], vals[b]); c != 0 {
					return c
				}
				return a - b
			})
			if !slices.Equal(rg.members[s:s+len(members)], members) {
				t.Fatalf("trial %d group %s: sorted members %v, want %v", trial, g, rg.members[s:s+len(members)], members)
			}
			lastLo, lastHi := 0, 0
			for k, a := range members {
				// Brute force: the codes of a's partners in rank order, with
				// a itself read as SIM, must be GT* SIM+ LT*.
				lo, hi := -1, -1
				var count [3]int
				for j, b := range members {
					code := features.CompareNum(vals[a], vals[b])
					if j != k {
						count[code]++
					} else if code != features.SymSIM {
						t.Fatalf("trial %d: %v is not SIM with itself", trial, vals[a])
					}
					switch {
					case code == features.SymSIM && lo < 0:
						lo, hi = j, j+1
					case code == features.SymSIM && hi == j:
						hi++
					case code == features.SymGT && lo >= 0,
						code == features.SymSIM,
						code == features.SymLT && lo < 0:
						t.Fatalf("trial %d: member %d (%v) partner %d (%v) breaks GT* SIM+ LT*", trial, k, vals[a], j, vals[b])
					}
				}
				if lo < lastLo || hi < lastHi {
					t.Fatalf("trial %d: window [%d, %d) of rank %d moved left of [%d, %d)", trial, lo, hi, k, lastLo, lastHi)
				}
				lastLo, lastHi = lo, hi
				if int(rg.lo[s+k]) != s+lo || int(rg.hi[s+k]) != s+hi {
					t.Fatalf("trial %d: sweep window [%d, %d), brute force [%d, %d)", trial, rg.lo[s+k]-int32(s), rg.hi[s+k]-int32(s), lo, hi)
				}
				for c := range count {
					if got := rg.cum[c][s+k+1] - rg.cum[c][s+k]; got != int64(count[c]) {
						t.Fatalf("trial %d: member %d has %d partners of code %d, brute force %d", trial, k, got, c, count[c])
					}
				}
				if hi-lo > 1 && lo > 0 {
					windows++
				}
			}
			s += len(members)
		}
		if s != len(rg.members) {
			t.Fatalf("trial %d: layout holds %d members, the groups %d", trial, len(rg.members), s)
		}
	}
	if windows < 1000 {
		t.Fatalf("only %d members had both a GT prefix and a SIM partner; the generator is toothless", windows)
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestRankDrawLaw checks the draw of every eligible oracle shape against
// §4.3's rule applied to the exact counts: over 200 seeds each class's
// drawn total is Binomial(200·n, p) with balancedRates' p — inside 5σ of
// its mean, and exactly 200·n at p = 1. Sample sizes are chosen so that every regime
// occurs: both classes thinned, only the majority thinned toward the
// minority, and the whole set taken.
func TestRankDrawLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var thinned, majority, whole int
	eligible := map[string]int{}
	for trial := 0; trial < 12; trial++ {
		log := oracleLog(rng)
		for name, despite := range oracleDespites() {
			rs := rankSpaceOf(log, oracleQuery(despite), despite)
			if rs == nil {
				continue
			}
			eligible[name]++
			for _, m := range []int{6, 40, 5000} {
				pObs, pExp := balancedRates(rs.nObs, rs.nExp, m)
				var drawn [2]int
				for s := int64(0); s < 200; s++ {
					smp := rs.sample(new(pairPlanes), new(rankDraw), m, stats.DeriveSeed(s, "rank-law"), 2)
					obs := countObserved(smp.labels)
					drawn[0] += obs
					drawn[1] += smp.len() - obs
				}
				for c, np := range [2]struct {
					n int64
					p float64
				}{{rs.nObs, pObs}, {rs.nExp, pExp}} {
					mean := 200 * float64(np.n) * np.p
					sd := math.Sqrt(mean * (1 - np.p))
					if d := math.Abs(float64(drawn[c]) - mean); d > 5*sd+1e-9 {
						t.Errorf("trial %d %s m=%d class %d: drew %d of 200×%d at p=%v, want %.1f ± %.1f (5σ)",
							trial, name, m, c, drawn[c], np.n, np.p, mean, 5*sd)
					}
				}
				switch {
				case pObs < 1 && pExp < 1:
					thinned++
				case pObs < 1 || pExp < 1:
					majority++
				case rs.nObs+rs.nExp > 0:
					whole++
				}
			}
		}
	}
	for name := range rankShapes {
		if eligible[name] == 0 {
			t.Errorf("%s: never rank-drawable; its draw law is untested", name)
		}
	}
	if thinned == 0 || majority == 0 || whole == 0 {
		t.Fatalf("regimes covered: both thinned %d, majority only %d, whole set %d; each must occur", thinned, majority, whole)
	}
}

// TestRankIneligibleWalks pins the shapes the rank sampler declines: a
// non-positive target cell in a group, despite conjuncts neither blocking
// nor a row filter proves (a compare atom, a base !=), and an observed
// clause of two atoms. Each still trains on
// exactly the walk's output — the enumeration thinned to MaxPairs, then
// balancedSample, under the same seeds as ever.
func TestRankIneligibleWalks(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	gt := pxql.Atom{Feature: "duration_compare", Op: pxql.OpEq, Value: features.ValGT}
	nonEmpty := map[string]int{}
	for trial := 0; trial < 20; trial++ {
		log := oracleLog(rng)
		if log.Len() < 2 {
			continue
		}
		// The same records with one duration zero and one negative.
		bad := joblog.NewLog(log.Schema)
		dur, _ := log.Schema.Index("duration")
		for i := 0; i < log.Len(); i++ {
			r := log.Record(i).Clone()
			if i < 2 {
				r.Values[dur] = joblog.Num(float64(-3 * i))
			}
			bad.MustAppend(r)
		}
		twoAtoms := oracleQuery(nil)
		twoAtoms.Observed = pxql.Predicate{gt, {Feature: "k_issame", Op: pxql.OpEq, Value: features.ValT}}
		for _, c := range []struct {
			name string
			log  *joblog.Log
			q    *pxql.Query
		}{
			{"non-positive target", bad, oracleQuery(nil)},
			{"residual despite", log, oracleQuery(oracleDespites()["compare"])},
			{"base !=", log, oracleQuery(pxql.Predicate{oracleDespites()["blocked"][0], {Feature: "v", Op: pxql.OpNe, Value: joblog.Num(3)}})},
			{"two-atom observed", log, twoAtoms},
		} {
			if rankSpaceOf(c.log, c.q, c.q.Despite) != nil {
				t.Fatalf("trial %d %s: rank-drawable", trial, c.name)
			}
			cfg := Config{SampleSize: 24, MaxPairs: 60, Seed: int64(trial)}
			e, err := NewExplainer(c.log, cfg)
			if err != nil {
				t.Fatal(err)
			}
			related, err := e.enumeratePairs(ctx, c.q, c.q.Despite, stats.DeriveSeed(cfg.Seed, "because-pairs"))
			if err != nil {
				t.Fatal(err)
			}
			want := balancedSample(new(pairPlanes), related, cfg.SampleSize, stats.DeriveRand(cfg.Seed, "because-sample"))
			related.release()
			got, nObs, nExp, err := e.trainingSample(ctx, c.q, c.q.Despite, "because", new(workspace))
			if related.len() == 0 {
				if !errors.Is(err, errNoRelated) {
					t.Errorf("trial %d %s: empty walk sampled with err %v", trial, c.name, err)
				}
				continue
			}
			nonEmpty[c.name]++
			if err != nil || nObs != int64(related.nObs) || nExp != int64(related.nExp) || !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d %s: training sample (%d obs, %d exp, err %v) is not the walk's (%d obs, %d exp)",
					trial, c.name, nObs, nExp, err, related.nObs, related.nExp)
			}
		}
	}
	for _, name := range []string{"non-positive target", "residual despite", "base !=", "two-atom observed"} {
		if nonEmpty[name] == 0 {
			t.Errorf("%s: no trial had related pairs; the case is untested", name)
		}
	}
}

// TestRankCountsMatchWalk holds every row-filtered shape's exact class
// sizes to an uncapped walk's counts on one log built for the filters'
// edges: a range column with −0 and +0 (equal, so one class), NaN,
// missing and infinite cells, a second range column, and a nominal
// column for `=` prefilters with and without a blocking atom, against
// constants that match nothing or have the wrong kind. A shape's layout
// must not depend on its clause order, and a non-positive target must
// rule it out only from inside a class.
func TestRankCountsMatchWalk(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "g", Kind: joblog.Nominal},
		{Name: "s", Kind: joblog.Nominal},
		{Name: "v", Kind: joblog.Numeric},
		{Name: "w", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	vs := []joblog.Value{joblog.Num(math.Copysign(0, -1)), joblog.Num(0), joblog.Num(1), joblog.Num(2),
		joblog.Num(math.NaN()), joblog.None(), joblog.Num(math.Inf(1))}
	ws := []joblog.Value{joblog.Num(1), joblog.Num(2), joblog.None()}
	ss := []joblog.Value{joblog.Str("a"), joblog.Str("b"), joblog.None()}
	// newLog builds the log, with a zero duration in row zero when it is
	// not negative.
	newLog := func(zero int) *joblog.Log {
		rng := rand.New(rand.NewSource(1999))
		log := joblog.NewLog(schema)
		for i := 0; i < 90; i++ {
			r := &joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{
				joblog.Str(fmt.Sprint("g", i%3)), ss[rng.Intn(len(ss))], vs[i%len(vs)], ws[rng.Intn(len(ws))],
				joblog.Num(float64(10 + rng.Intn(40))),
			}}
			if i == zero {
				r.Values[4] = joblog.Num(0)
			}
			log.MustAppend(r)
		}
		return log
	}
	log := newLog(-1)
	blocked := pxql.Atom{Feature: "g_issame", Op: pxql.OpEq, Value: features.ValT}
	num := func(f string, op pxql.Op, c float64) pxql.Atom {
		return pxql.Atom{Feature: f, Op: op, Value: joblog.Num(c)}
	}
	negZero := math.Copysign(0, -1)
	shapes := map[string]pxql.Predicate{
		"zero range":          {num("v", pxql.OpLe, 0)},
		"signed-zero range":   {blocked, num("v", pxql.OpGe, negZero)},
		"two ranges":          {blocked, num("v", pxql.OpGt, 0.5), num("w", pxql.OpLe, 1.5)},
		"open ranges":         {num("v", pxql.OpLt, 2), num("w", pxql.OpGe, 1)},
		"nominal prefilter":   {{Feature: "s", Op: pxql.OpEq, Value: joblog.Str("a")}},
		"prefilter and range": {{Feature: "s", Op: pxql.OpEq, Value: joblog.Str("b")}, num("v", pxql.OpLt, 1.5)},
		"numeric equality":    {blocked, num("v", pxql.OpEq, negZero)},
		"NaN range":           {blocked, num("v", pxql.OpGt, math.NaN())},
		"target range":        {blocked, num("duration", pxql.OpGt, 20)},
		"unlogged constant":   {{Feature: "s", Op: pxql.OpEq, Value: joblog.Str("zzz")}},
		"wrong-kind constant": {blocked, {Feature: "v", Op: pxql.OpEq, Value: joblog.Str("a")}},
	}
	v, _ := schema.Index("v")
	for name, despite := range shapes {
		q := oracleQuery(despite)
		rs := rankSpaceOf(log, q, despite)
		if rs == nil {
			t.Errorf("%s: not rank-drawable", name)
			continue
		}
		ps, err := runEnumSpecs(context.Background(), Exec{Parallelism: 1}, log,
			PlanEnumShards(log, features.Level3, q, despite, 0, 1, 7))
		if err != nil {
			t.Fatal(err)
		}
		walked := ps.flatten(new(pairPlanes))
		ps.release()
		if rs.nObs != int64(ps.nObs) || rs.nExp != int64(ps.nExp) {
			t.Errorf("%s: rank counts obs=%d exp=%d, the uncapped walk obs=%d exp=%d", name, rs.nObs, rs.nExp, ps.nObs, ps.nExp)
		}
		// The clause reversed shares the memoized layout; built first on a
		// fresh view, it must build the same one.
		reversed := slices.Clone(despite)
		slices.Reverse(reversed)
		if other := rankSpaceOf(newLog(-1), oracleQuery(reversed), reversed); other == nil ||
			!reflect.DeepEqual(other.rg, rs.rg) {
			t.Errorf("%s: the reversed clause builds another layout", name)
		}
		mixed := 0 // walked pairs of a −0 and a +0 cell
		for i := range walked.a {
			a, b := log.Record(walked.a[i]).Values[v], log.Record(walked.b[i]).Values[v]
			if a.Kind == joblog.Numeric && b.Kind == joblog.Numeric && a.Num == 0 && b.Num == 0 &&
				math.Signbit(a.Num) != math.Signbit(b.Num) {
				mixed++
			}
		}
		switch name {
		case "zero range", "signed-zero range", "numeric equality":
			if mixed == 0 {
				t.Errorf("%s: no related pair joins −0 and +0; the case is untested", name)
			}
		case "target range":
			// Equal targets are SIM: the class of GT pairs is empty.
			if ps.nObs != 0 || ps.nExp == 0 {
				t.Errorf("%s: obs=%d exp=%d, want only SIM pairs", name, ps.nObs, ps.nExp)
			}
		case "NaN range", "unlogged constant", "wrong-kind constant":
			if walked.len() != 0 {
				t.Errorf("%s: %d related pairs, want none", name, walked.len())
			}
		default:
			if ps.nObs == 0 || ps.nExp == 0 {
				t.Errorf("%s: a class is empty (obs=%d exp=%d); the shape is untested", name, ps.nObs, ps.nExp)
			}
		}
	}
	// A zero target rules a layout out only from inside a class of two or
	// more: row 1 (v = +0) sits in the zero range's class and outside
	// v > 0.5.
	zeroed := newLog(1)
	if d := shapes["zero range"]; rankSpaceOf(zeroed, oracleQuery(d), d) != nil {
		t.Error("zero range: rank-drawable with a zero target in a class")
	}
	if d := shapes["two ranges"]; rankSpaceOf(zeroed, oracleQuery(d), d) == nil {
		t.Error("two ranges: a zero target outside every class made the layout undrawable")
	}
}

// TestRankLayoutMemoBounded: filter constants come from the question, so a
// view memoizes at most maxFilteredLayouts filtered layouts however many
// constants it is asked. A question past the bound builds its layout for
// itself and gets the counts a fresh view memoizing it reports; memoized
// layouts stay shared, and an unfiltered one is memoized past the bound.
func TestRankLayoutMemoBounded(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "g", Kind: joblog.Nominal},
		{Name: "v", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	newLog := func() *joblog.Log {
		rng := rand.New(rand.NewSource(1999))
		log := joblog.NewLog(schema)
		for i := 0; i < 200; i++ {
			log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{
				joblog.Str(fmt.Sprint("g", i%3)), joblog.Num(float64(i % 50)), joblog.Num(float64(10 + rng.Intn(40))),
			}})
		}
		return log
	}
	log := newLog()
	blocked := pxql.Atom{Feature: "g_issame", Op: pxql.OpEq, Value: features.ValT}
	despiteAt := func(c int) pxql.Predicate {
		return pxql.Predicate{blocked, {Feature: "v", Op: pxql.OpGt, Value: joblog.Num(float64(c))}}
	}
	first := map[int]*rankGroups{}
	for c := 0; c < 3*maxFilteredLayouts; c++ {
		d := despiteAt(c)
		rs := rankSpaceOf(log, oracleQuery(d), d)
		if rs == nil {
			t.Fatalf("v > %d: not rank-drawable", c)
		}
		first[c] = rs.rg
		fresh := rankSpaceOf(newLog(), oracleQuery(d), d)
		if rs.nObs != fresh.nObs || rs.nExp != fresh.nExp || !reflect.DeepEqual(rs.rg, fresh.rg) {
			t.Errorf("v > %d: obs=%d exp=%d, a fresh view's obs=%d exp=%d", c, rs.nObs, rs.nExp, fresh.nObs, fresh.nExp)
		}
	}
	unfiltered := pxql.Predicate{blocked}
	if rankSpaceOf(log, oracleQuery(unfiltered), unfiltered) == nil {
		t.Fatal("blocked: not rank-drawable")
	}
	layouts := log.Columns().Memo(rankLayoutsKey{}, func() any { return new(rankLayouts) }).(*rankLayouts)
	if layouts.filtered != maxFilteredLayouts || len(layouts.slots) != maxFilteredLayouts+1 {
		t.Errorf("the view holds %d layouts, %d filtered; want %d and %d",
			len(layouts.slots), layouts.filtered, maxFilteredLayouts+1, maxFilteredLayouts)
	}
	for c := 0; c < 3*maxFilteredLayouts; c++ {
		d := despiteAt(c)
		again := rankSpaceOf(log, oracleQuery(d), d).rg
		if shared := again == first[c]; shared != (c < maxFilteredLayouts) {
			t.Errorf("v > %d: layout shared with the first question = %v", c, shared)
		}
	}
}

// TestRankCountsPastInt32: one blocking group of 70 000 members whose
// targets spread over many 10 % bands holds some 2.4·10⁹ pairs in each of
// its GT and LT classes — past what a 32-bit int counts. The rank
// layout's class sizes must still be exact (every ordered pair has one
// code, GT and LT mirror each other, and the SIM window is counted here
// by binary search), and a draw must reach ranks past 2³¹ and land on
// pairs of its class.
func TestRankCountsPastInt32(t *testing.T) {
	const n = 70000
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "g", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	vals := make([]float64, n)
	log := joblog.NewLog(schema)
	for i := range vals {
		// Strictly increasing, so rank order is record order.
		vals[i] = math.Exp(float64(i) / 1000)
		log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{joblog.Str("one"), joblog.Num(vals[i])}})
	}
	despite := pxql.Predicate{{Feature: "g_issame", Op: pxql.OpEq, Value: features.ValT}}
	rs := rankSpaceOf(log, oracleQuery(despite), despite)
	if rs == nil {
		t.Fatal("the question is not rank-drawable")
	}
	var sim int64
	for k, x := range vals {
		lo := sort.Search(n, func(j int) bool { return features.CompareNum(x, vals[j]) != features.SymGT })
		hi := sort.Search(n, func(j int) bool { return j > k && features.CompareNum(x, vals[j]) == features.SymLT })
		sim += int64(hi - lo - 1)
	}
	gt := (int64(n)*(n-1) - sim) / 2
	if gt <= math.MaxInt32 {
		t.Fatalf("the GT class holds %d pairs: not past 2³¹", gt)
	}
	if rs.nObs != gt || rs.nExp != sim {
		t.Fatalf("rank counts GT=%d SIM=%d, want GT=%d SIM=%d", rs.nObs, rs.nExp, gt, sim)
	}
	smp := rs.sample(new(pairPlanes), new(rankDraw), 2000, 11, 2)
	beyond := 0
	for i := range smp.a {
		a, b := smp.a[i], smp.b[i]
		want := features.SymSIM
		if smp.labels[i] {
			want = features.SymGT
			// Member a is at rank position a; its GT pairs' ranks start
			// at cum[a].
			if rs.rg.cum[features.SymGT][a] > math.MaxInt32 {
				beyond++
			}
		}
		if got := features.CompareNum(vals[a], vals[b]); got != uint64(want) {
			t.Fatalf("drawn pair (%d, %d) of class %v has code %d", a, b, smp.labels[i], got)
		}
	}
	if obs := countObserved(smp.labels); obs < 900 || obs > 1100 || beyond == 0 {
		t.Fatalf("drew %d GT pairs (want ≈1000), %d of them past rank 2³¹", obs, beyond)
	}
}

// TestRankSampleMatchesSerialDraw holds the concurrent class draws to the
// serial draw they replace, written out here: one skip table, the
// observed class and then the expected class into one list. It runs at
// Parallelism 1, 2 and 4 and over several seeds, on the oracle's small
// logs, on one group of 400 members, where the GT class is thinned with
// redraws, and on that group cut and split by a row filter. Sample sizes reach every regime: both classes thinned, a
// class taken whole (p >= 1) and, on a group whose durations are all
// equal, a class with no pairs.
func TestRankSampleMatchesSerialDraw(t *testing.T) {
	serial := func(rs *rankSpace, m int, seed uint64) *pairPlanes {
		pObs, pExp := balancedRates(rs.nObs, rs.nExp, m)
		out := new(pairPlanes)
		tab := new(skipTable)
		rs.draw(out, 0, rs.nObs, pObs, seed, tab)
		rs.draw(out, 1, rs.nExp, pExp, seed, tab)
		return out
	}
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "g", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	oneGroup := func(durations func(i int) float64) *joblog.Log {
		log := joblog.NewLog(schema)
		for i := 0; i < 400; i++ {
			log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{joblog.Str("one"), joblog.Num(durations(i))}})
		}
		return log
	}
	type space struct {
		name string
		log  *joblog.Log
		desp pxql.Predicate
	}
	blocked := pxql.Predicate{{Feature: "g_issame", Op: pxql.OpEq, Value: features.ValT}}
	// The same spread under a row filter: k cuts a quarter of the rows
	// and splits the rest into three classes of 100.
	filtered := joblog.NewLog(joblog.NewSchema([]joblog.Field{
		{Name: "g", Kind: joblog.Nominal},
		{Name: "k", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	}))
	for i := 0; i < 400; i++ {
		filtered.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{
			joblog.Str("one"), joblog.Num(float64(i % 4)), joblog.Num(math.Exp(float64(i) / 40))}})
	}
	spaces := []space{
		{"spread", oneGroup(func(i int) float64 { return math.Exp(float64(i) / 40) }), blocked},
		{"equal", oneGroup(func(int) float64 { return 7 }), blocked},
		{"filtered", filtered, append(slices.Clone(blocked), pxql.Atom{Feature: "k", Op: pxql.OpGe, Value: joblog.Num(1)})},
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		log := oracleLog(rng)
		for name := range rankShapes {
			spaces = append(spaces, space{fmt.Sprint("oracle ", trial, " ", name), log, oracleDespites()[name]})
		}
	}
	var thinned, whole, empty int
	for i, sp := range spaces {
		rs := rankSpaceOf(sp.log, oracleQuery(sp.desp), sp.desp)
		if rs == nil {
			if i < 3 {
				t.Fatalf("%s: the question is not rank-drawable", sp.name)
			}
			continue
		}
		for _, m := range []int{6, 200, 5000} {
			pObs, pExp := balancedRates(rs.nObs, rs.nExp, m)
			thinned += int(bitset.B2u(pObs < 1 && rs.nObs > 0))
			whole += int(bitset.B2u(pObs >= 1 && rs.nObs > 0 || pExp >= 1 && rs.nExp > 0))
			empty += int(bitset.B2u(rs.nObs == 0 || rs.nExp == 0))
			for seed := uint64(0); seed < 4; seed++ {
				want := serial(rs, m, seed)
				for _, workers := range []int{1, 2, 4} {
					got := rs.sample(new(pairPlanes), new(rankDraw), m, seed, workers)
					if !slices.Equal(got.a, want.a) || !slices.Equal(got.b, want.b) || !slices.Equal(got.labels, want.labels) {
						t.Fatalf("%s m=%d seed %d, %d workers: the concurrent draw differs from the serial one (%d pairs, want %d)",
							sp.name, m, seed, workers, got.len(), want.len())
					}
				}
			}
		}
	}
	if thinned == 0 || whole == 0 || empty == 0 {
		t.Fatalf("regimes reached: %d thinned, %d whole, %d with an empty class; want each", thinned, whole, empty)
	}
}
