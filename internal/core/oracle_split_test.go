package core

// An independent reference for Algorithm 1's per-feature split (line 5),
// written straight from Section 4.2 over the boxed Deriver.Vector values
// of each working-set pair and sharing no code with explain.go, matrix.go
// or dtree: entropy and gain from class counts, the best `value == v`
// test of a nominal feature, the best midpoint threshold of a numeric
// one, C4.5's scaling of the gain by the known fraction. scoreFeature —
// columns, packed symbols, probe table and all — is property-tested
// against it on random small logs with missing cells, kind-mismatched
// (alien) cells, NaN, ±0, infinities, and nominal values containing the
// arrow, so that two diff symbols render alike.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// refEntropy is the two-class entropy, in bits, of a set with the given
// class counts.
func refEntropy(pos, neg int) float64 {
	h := 0.0
	for _, c := range []int{pos, neg} {
		if c > 0 {
			p := float64(c) / float64(pos+neg)
			h -= p * math.Log2(p)
		}
	}
	return h
}

// refSide is one side of a binary split, by class.
type refSide struct{ pos, neg int }

func (s refSide) n() int { return s.pos + s.neg }

// refGain is the information gain of splitting in ∪ out into in and out.
func refGain(in, out refSide) float64 {
	n := float64(in.n() + out.n())
	return refEntropy(in.pos+out.pos, in.neg+out.neg) -
		float64(in.n())/n*refEntropy(in.pos, in.neg) -
		float64(out.n())/n*refEntropy(out.pos, out.neg)
}

// refCand is one candidate test over a feature: `f == str` for a nominal
// feature, `f <= num` for a numeric one, with the split it induces on the
// known values.
type refCand struct {
	num     float64
	str     string
	in, out refSide
}

// samePartition reports whether two tests cut the known values into the
// same two class-count sides, whichever side each calls "in". Such tests
// have the same gain exactly, not just to rounding, so the first of them
// in candidate order must win.
func samePartition(a, b refCand) bool {
	return (a.in == b.in && a.out == b.out) || (a.in == b.out && a.out == b.in)
}

// refCandidates lists the candidate tests over one feature in tie-break
// order — nominal values in string order, numeric cut points ascending —
// and the number of known values. A value is known when it is present and
// of the feature's own kind.
func refCandidates(kind joblog.Kind, vals []joblog.Value, labels []bool) (cands []refCand, known int) {
	var total refSide
	count := func(s *refSide, label bool) {
		if label {
			s.pos++
		} else {
			s.neg++
		}
	}
	if kind == joblog.Nominal {
		byVal := map[string]*refSide{}
		for i, v := range vals {
			if v.Kind != joblog.Nominal {
				continue
			}
			if byVal[v.Str] == nil {
				byVal[v.Str] = &refSide{}
			}
			count(byVal[v.Str], labels[i])
			count(&total, labels[i])
		}
		var strs []string
		for s := range byVal {
			strs = append(strs, s)
		}
		sort.Strings(strs)
		if len(strs) < 2 {
			return nil, total.n()
		}
		for _, s := range strs {
			in := *byVal[s]
			cands = append(cands, refCand{str: s, in: in, out: refSide{total.pos - in.pos, total.neg - in.neg}})
		}
		return cands, total.n()
	}
	type point struct {
		v     float64
		label bool
	}
	var pts []point
	for i, v := range vals {
		if v.Kind == joblog.Numeric && !math.IsNaN(v.Num) {
			pts = append(pts, point{v.Num, labels[i]})
			count(&total, labels[i])
		}
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].v < pts[b].v })
	var below refSide
	for i := 0; i+1 < len(pts); i++ {
		count(&below, pts[i].label)
		lo, hi := pts[i].v, pts[i+1].v
		if lo == hi {
			continue
		}
		// The midpoint, unless it fails to separate lo from hi.
		t := (lo + hi) / 2
		if !(lo <= t && t < hi) {
			t = lo
		}
		cands = append(cands, refCand{num: t, in: below, out: refSide{total.pos - below.pos, total.neg - below.neg}})
	}
	return cands, total.n()
}

// refScore is the reference verdict on one feature: ok false when no
// predicate over it may enter the clause, otherwise the acceptable atoms
// (every test whose gain is within rounding of the best and that is not
// preceded by a test with the very same partition) and the scaled gain.
func refScore(d *features.Deriver, target string, level features.Level, f int,
	vecs [][]joblog.Value, labels []bool, v0 joblog.Value) (atoms []pxql.Atom, gain float64, ok bool) {

	rawIdx, family := d.RawOf(f)
	switch {
	case d.RawSchema().Field(rawIdx).Name == target:
		return nil, 0, false
	case level == features.Level1 && family != features.IsSame:
		return nil, 0, false
	case level == features.Level2 && family == features.Base:
		return nil, 0, false
	case v0.Kind == joblog.Missing:
		return nil, 0, false
	}
	field := d.Schema().Field(f)
	vals := make([]joblog.Value, len(vecs))
	for i, vec := range vecs {
		vals[i] = vec[f]
	}
	cands, known := refCandidates(field.Kind, vals, labels)
	if len(cands) == 0 {
		return nil, 0, false
	}
	best := math.Inf(-1)
	for _, c := range cands {
		best = math.Max(best, refGain(c.in, c.out))
	}
	for i, c := range cands {
		if refGain(c.in, c.out) < best-1e-9 {
			continue
		}
		first := true
		for _, e := range cands[:i] {
			first = first && !samePartition(e, c)
		}
		if !first {
			continue
		}
		// The predicate asserts whichever side the pair of interest is on.
		a := pxql.Atom{Feature: field.Name}
		if field.Kind == joblog.Nominal {
			a.Op, a.Value = pxql.OpNe, joblog.Str(c.str)
			if v0.Str == c.str {
				a.Op = pxql.OpEq
			}
		} else {
			a.Op, a.Value = pxql.OpLe, joblog.Num(c.num)
			if v0.Num > c.num {
				a.Op = pxql.OpGt
			}
		}
		atoms = append(atoms, a)
	}
	return atoms, best * float64(known) / float64(len(vecs)), true
}

// splitLog is a random small log whose cells exercise every encoding
// rule: missing, alien, NaN, signed zeros, infinities, values within and
// outside the 10 % band, and strings whose diff renderings collide —
// ("a→b", "c") and ("a", "b→c") both render "(a→b→c)".
func splitLog(rng *rand.Rand, n int) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "n1", Kind: joblog.Numeric},
		{Name: "n2", Kind: joblog.Numeric},
		{Name: "s1", Kind: joblog.Nominal},
		{Name: "s2", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	nums := []float64{0, math.Copysign(0, -1), 1, 1.05, -3, 100, math.Inf(-1), math.Inf(1), math.NaN(), 1e308, 1.7e308}
	strs := []string{"a", "b→c", "a→b", "c", "x", ""}
	log := joblog.NewLog(schema)
	for i := 0; i < n; i++ {
		rec := &joblog.Record{ID: id(i), Values: make([]joblog.Value, schema.Len())}
		for f := range rec.Values {
			numeric := schema.Field(f).Kind == joblog.Numeric
			switch r := rng.Intn(10); {
			case r == 0:
				continue // missing
			case r == 1:
				numeric = !numeric // alien
			}
			if numeric {
				rec.Values[f] = joblog.Num(nums[rng.Intn(len(nums))])
			} else {
				rec.Values[f] = joblog.Str(strs[rng.Intn(len(strs))])
			}
		}
		log.MustAppend(rec)
	}
	return log
}

func TestScoreFeatureMatchesReference(t *testing.T) {
	scored, arrowMerges := 0, 0
	sc := new(scoreScratch) // reused throughout, as a scoring goroutine does
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := splitLog(rng, 7+rng.Intn(4))
		level := features.Level(1 + seed%3)
		e, err := NewExplainer(log, Config{Level: level, Exec: Exec{Parallelism: 1 + int(seed%2)}})
		if err != nil {
			t.Fatal(err)
		}
		ps := &pairPlanes{}
		for a := range log.Records {
			for b := range log.Records {
				if a != b {
					ps.add(a, b, rng.Intn(2) == 0)
				}
			}
		}
		m := materialize(log, e.d, ps, e.cfg.Parallelism)
		in := log.Columns().Intern()
		vecs := make([][]joblog.Value, ps.len())
		for i := range vecs {
			vecs[i] = e.d.Vector(log.Records[ps.a[i]], log.Records[ps.b[i]])
		}
		pairVec := vecs[rng.Intn(len(vecs))]

		whole := make([]int, ps.len())
		var subset []int
		for i := range whole {
			whole[i] = i
			if rng.Intn(3) > 0 {
				subset = append(subset, i)
			}
		}
		if len(subset) == len(whole) {
			subset = subset[1:]
		}
		for _, cur := range [][]int{whole, subset} {
			subVecs := make([][]joblog.Value, len(cur))
			subLabels := make([]bool, len(cur))
			for k, i := range cur {
				subVecs[k], subLabels[k] = vecs[i], ps.labels[i]
			}
			for f := 0; f < e.d.Schema().Len(); f++ {
				where := fmt.Sprintf("seed %d L%d %s over %d/%d pairs", seed, level, e.d.Schema().Field(f).Name, len(cur), m.N)
				want, wantGain, wantOK := refScore(e.d, e.cfg.Target, level, f, subVecs, subLabels, pairVec[f])
				got, gain, ok := e.scoreFeature(in, m, cur, subLabels, pairVec, nil, f, sc)
				if ok != wantOK {
					t.Fatalf("%s: ok = %v, reference says %v", where, ok, wantOK)
				}
				if !ok {
					continue
				}
				scored++
				if math.Abs(gain-wantGain) > 1e-9 {
					t.Errorf("%s: gain %v, reference %v", where, gain, wantGain)
				}
				accepted := false
				for _, a := range want {
					accepted = accepted || (got.Feature == a.Feature && got.Op == a.Op && got.Value.Equal(a.Value))
				}
				if !accepted {
					t.Errorf("%s: chose %v, reference accepts %v", where, got, want)
				}
				// An atom already in the clause is not offered again.
				if _, _, again := e.scoreFeature(in, m, cur, subLabels, pairVec, pxql.Predicate{got}, f, sc); again {
					t.Errorf("%s: offered %v although the clause holds it", where, got)
				}
				if got.Value.Str == "(a→b→c)" {
					arrowMerges++
				}
			}
		}
	}
	// The property is vacuous unless the random logs reach the cases it is
	// there for.
	if scored < 1000 || arrowMerges == 0 {
		t.Errorf("scored %d features, %d on a merged arrow rendering: the generator no longer reaches the interesting cases", scored, arrowMerges)
	}
}

// TestBestNominalSymsCodeColumnsDoNotAllocate pins the map-free count on
// the issame and compare columns — half the symbol plane: with warm
// scratch, a scoring pass over them touches no allocator.
func TestBestNominalSymsCodeColumnsDoNotAllocate(t *testing.T) {
	d, in, m := bitmapFixture(t, 13)
	cur := make([]int, 0, m.N)
	subLabels := make([]bool, 0, m.N)
	for i := 0; i < m.N; i += 2 {
		cur = append(cur, i)
		subLabels = append(subLabels, i%3 == 0)
	}
	var feats []int
	for f := 0; f < d.Schema().Len(); f++ {
		if _, family := d.RawOf(f); family == features.IsSame || family == features.Compare {
			feats = append(feats, f)
		}
	}
	sc := new(scoreScratch)
	score := func() {
		for _, f := range feats {
			bestNominalSyms(d, in, f, m, cur, subLabels, sc)
		}
	}
	score() // sizes the scratch
	if allocs := testing.AllocsPerRun(20, score); allocs != 0 {
		t.Errorf("scoring %d issame/compare columns allocates %v times per run, want 0", len(feats), allocs)
	}
}
