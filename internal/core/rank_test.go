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
	"testing"

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
					if got := rg.cum[c][s+k+1] - rg.cum[c][s+k]; got != count[c] {
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
					smp := rs.sample(m, stats.DeriveSeed(s, "rank-law"))
					obs := countObserved(smp.labels)
					drawn[0] += obs
					drawn[1] += smp.len() - obs
				}
				for c, np := range [2]struct {
					n int
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
// non-positive target cell in a group, a despite conjunct blocking does
// not prove, and an observed clause of two atoms. Each still trains on
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
			{"residual despite", log, oracleQuery(oracleDespites()["zone"])},
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
			want := balancedSample(related, cfg.SampleSize, stats.DeriveRand(cfg.Seed, "because-sample"))
			related.release()
			got, nObs, nExp, err := e.trainingSample(ctx, c.q, c.q.Despite, "because")
			if related.len() == 0 {
				if !errors.Is(err, errNoRelated) {
					t.Errorf("trial %d %s: empty walk sampled with err %v", trial, c.name, err)
				}
				continue
			}
			nonEmpty[c.name]++
			if err != nil || nObs != related.nObs || nExp != related.nExp || !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d %s: training sample (%d obs, %d exp, err %v) is not the walk's (%d obs, %d exp)",
					trial, c.name, nObs, nExp, err, related.nObs, related.nExp)
			}
		}
	}
	for _, name := range []string{"non-positive target", "residual despite", "two-atom observed"} {
		if nonEmpty[name] == 0 {
			t.Errorf("%s: no trial had related pairs; the case is untested", name)
		}
	}
}
