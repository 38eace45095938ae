package core

// The counts scorers against the column scorers they replace: a base or
// diff column scored from its value index (per-value popcounts or codes,
// then dtree's count-based entry points) must give the threshold, value
// and gain, bit for bit, that dtree.BestThresholdF gives over the working
// set's cells and that the string-sorted path gives over their
// renderings — and a generated atom's bitmap built from the planes must
// be its per-row evaluation.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/dtree"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// valuePool returns k distinct floats (distinct bits) drawn around the
// awkward ones: both zeros, both infinities, subnormals, the largest
// finite value and values inside one another's 10 % band.
func valuePool(rng *rand.Rand, k int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -5e-324,
		2.2250738585072014e-308, math.MaxFloat64, 1, 1.05}
	seen := map[uint64]bool{}
	var out []float64
	add := func(x float64) {
		if b := math.Float64bits(x); !seen[b] && len(out) < k {
			seen[b] = true
			out = append(out, x)
		}
	}
	for _, i := range rng.Perm(len(special)) {
		add(special[i])
	}
	for len(out) < k {
		add(math.Round(rng.NormFloat64()*1e3) / 8)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// valueLog is a log whose numeric base column holds exactly the k values
// of pool (each shared by a pair of partner records, 2v and 2v+1, plus
// other records holding NaN or missing cells), and whose nominal raw
// holds strings whose diff renderings collide. Its pairs are both orders
// of every partner pair and extra random ones. Beside a pool of PlaneCap
// values or more, the nominal raw has enough strings for its diff column
// to hold more values than planes.
func valueLog(rng *rand.Rand, pool []float64, extra int) (*joblog.Log, *pairPlanes) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "n", Kind: joblog.Numeric},
		{Name: "s", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	strs := []string{"a", "b→c", "a→b", "c", "x→", "→y"}
	if len(pool) >= features.PlaneCap {
		// Enough strings for more diff values than planes.
		strs = append(strs, "d", "e", "f", "g", "h", "i")
	}
	log := joblog.NewLog(schema)
	recs := 2*len(pool) + 6
	for i := 0; i < recs; i++ {
		n := joblog.Num(math.NaN())
		switch {
		case i < 2*len(pool):
			n = joblog.Num(pool[i/2])
		case i%2 == 0:
			n = joblog.None()
		}
		s := joblog.Str(strs[rng.Intn(len(strs))])
		if rng.Intn(8) == 0 {
			s = joblog.None()
		}
		log.MustAppend(&joblog.Record{ID: id(i), Values: []joblog.Value{n, s, joblog.Num(float64(i))}})
	}
	ps := &pairPlanes{}
	for v := range pool {
		ps.add(2*v, 2*v+1, rng.Intn(2) == 0)
		ps.add(2*v+1, 2*v, rng.Intn(2) == 0)
	}
	for k := 0; k < extra; k++ {
		a, b := rng.Intn(recs), rng.Intn(recs-1)
		if b >= a {
			b++
		}
		ps.add(a, b, rng.Intn(3) == 0)
	}
	return log, ps
}

// bestNominalByString is the string-sorted path the value index
// replaces: render each working-set cell, tally per rendering, sort the
// renderings and pick the first best gain in that order, over the
// working set rows whose pairs are labelled labels (one per matrix row).
func bestNominalByString(d *features.Deriver, in *joblog.Intern, f int, m *features.PairMatrix, rows []int, labels []bool) (string, float64, bool) {
	type tally struct{ pos, neg int }
	by := map[string]*tally{}
	var strs []string
	for _, i := range rows {
		s := m.SymAt(i, d.SymOffset(f))
		if s == features.MissingSym {
			continue
		}
		r := d.SymString(in, f, s)
		if by[r] == nil {
			by[r] = &tally{}
			strs = append(strs, r)
		}
		if labels[i] {
			by[r].pos++
		} else {
			by[r].neg++
		}
	}
	if len(strs) < 2 {
		return "", 0, false
	}
	sort.Strings(strs)
	totalPos, totalNeg := 0, 0
	for _, r := range strs {
		totalPos += by[r].pos
		totalNeg += by[r].neg
	}
	best, bestGain := "", -1.0
	for _, r := range strs {
		c := by[r]
		if g := dtree.GainFromCounts(c.pos, c.neg, totalPos-c.pos, totalNeg-c.neg); g > bestGain {
			best, bestGain = r, g
		}
	}
	knownFrac := float64(totalPos+totalNeg) / float64(len(rows))
	return best, bestGain * knownFrac, true
}

func TestValueCountsMatchColumnScorers(t *testing.T) {
	reached := map[string]int{}
	sc := new(scoreScratch)
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		k := []int{1, 3, 12, features.PlaneCap - 1, features.PlaneCap, features.PlaneCap + 1, 100}[trial%7]
		log, ps := valueLog(rng, valuePool(rng, k), 40+rng.Intn(200))
		e, err := NewExplainer(log, Config{Exec: Exec{Parallelism: 1 + trial%2}})
		if err != nil {
			t.Fatal(err)
		}
		d, in := e.d, log.Columns().Intern()
		m := new(features.PairMatrix)
		fillMatrix(m, log, d, ps, nil, e.cfg.Parallelism)

		all := make([]int, m.N)
		var subset []int
		for i := range all {
			all[i] = i
			if rng.Intn(2) == 0 {
				subset = append(subset, i)
			}
		}
		sets := map[string][]int{"no rows": nil, "one row": {rng.Intn(m.N)}, "all rows": all, "half the rows": subset}
		for name, rows := range sets {
			ws := testWorkingSet(rows, ps.labels)
			for f := 0; f < d.Schema().Len(); f++ {
				vi := m.Values(f)
				if vi == nil {
					continue
				}
				where := fmt.Sprintf("trial %d (%d values) %s over %s", trial, k, d.Schema().Field(f).Name, name)
				store := "planes"
				if !vi.Planar() {
					store = "codes"
				}
				sc.counts = valueCounts(sc.counts, vi, ws)
				var atom pxql.Atom
				if off := d.NumOffset(f); off >= 0 {
					if d.Schema().Field(f).Name == "n" && vi.Len() != k {
						t.Fatalf("%s: the index holds %d values, the column %d", where, vi.Len(), k)
					}
					vals, labels := make([]float64, len(rows)), make([]bool, len(rows))
					for j, i := range rows {
						vals[j], labels[j] = m.NumAt(i, off), ps.labels[i]
					}
					wantT, wantG, wantOK := dtree.BestThresholdF(vals, labels, nil)
					gotT, gotG, gotOK := bestThreshold(vi, m.NumCol(off), ws, sc)
					if gotOK != wantOK || math.Float64bits(gotT) != math.Float64bits(wantT) || math.Float64bits(gotG) != math.Float64bits(wantG) {
						t.Fatalf("%s: counts give (%v, %v, %v), BestThresholdF (%v, %v, %v)", where, gotT, gotG, gotOK, wantT, wantG, wantOK)
					}
					if !gotOK {
						continue
					}
					reached["threshold over "+store]++
					atom = pxql.Atom{Feature: d.Schema().Field(f).Name, Op: pxql.OpLe, Value: joblog.Num(gotT)}
				} else {
					wantV, wantG, wantOK := bestNominalByString(d, in, f, m, rows, ps.labels)
					best, gotG, gotOK := dtree.BestNominalCounts(sc.counts, len(rows))
					gotV := ""
					if gotOK {
						gotV = vi.String(d, in, best)
					}
					if gotOK != wantOK || gotV != wantV || math.Float64bits(gotG) != math.Float64bits(wantG) {
						t.Fatalf("%s: counts give (%q, %v, %v), the string-sorted path (%q, %v, %v)", where, gotV, gotG, gotOK, wantV, wantG, wantOK)
					}
					if !gotOK {
						continue
					}
					reached["nominal over "+store]++
					atom = pxql.Atom{Feature: d.Schema().Field(f).Name, Op: pxql.OpNe, Value: joblog.Str(gotV)}
				}
				// The winner's bitmap, from planes or from the column, is its
				// per-row evaluation.
				ma := newMatrixAtom(d, in, f, atom)
				sel := bitset.Make(m.N)
				ma.fillRange(m, sel, allRows(m.N))
				for row := 0; row < m.N; row++ {
					if sel.Get(row) != ma.eval(m, row) {
						t.Fatalf("%s: %v's bit %d is %v, eval %v", where, atom, row, sel.Get(row), ma.eval(m, row))
					}
				}
			}
		}
	}
	t.Logf("scored %v", reached)
	for _, want := range []string{"threshold over planes", "threshold over codes", "nominal over planes", "nominal over codes"} {
		if reached[want] < 20 {
			t.Errorf("%s reached %d times, want >= 20 (%v)", want, reached[want], reached)
		}
	}
}
