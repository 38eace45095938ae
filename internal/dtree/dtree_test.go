package dtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestGainFromCounts(t *testing.T) {
	// The paper's Figure 2 example: 6 positives, 4 negatives, entropy 0.97.
	// Predicate A separates perfectly except one instance: say grey side
	// holds 6+ and 1-, white side 0+ and 3-.
	gain := GainFromCounts(6, 1, 0, 3)
	if gain < 0.5 {
		t.Errorf("good split gain = %v, want high", gain)
	}
	// Predicate B splits without separating: proportions preserved.
	gainB := GainFromCounts(3, 2, 3, 2)
	if gainB > 1e-9 {
		t.Errorf("useless split gain = %v, want ~0", gainB)
	}
	if GainFromCounts(0, 0, 0, 0) != 0 {
		t.Error("empty gain should be 0")
	}
}

// Property: information gain is non-negative and bounded by the prior
// entropy.
func TestGainBounds(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		g := GainFromCounts(int(a), int(b), int(c), int(d))
		h := func() float64 {
			pos := int(a) + int(c)
			neg := int(b) + int(d)
			if pos+neg == 0 {
				return 0
			}
			p := float64(pos) / float64(pos+neg)
			if p <= 0 || p >= 1 {
				return 0
			}
			return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
		}()
		return g >= -1e-9 && g <= h+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

var missing = math.NaN()

func TestBestThreshold(t *testing.T) {
	// Labels flip exactly at value 10 → threshold should land between 10
	// and 20 and the gain should be the full prior entropy (perfect split).
	vals := []float64{1, 5, 10, 20, 25, 30}
	labels := []bool{true, true, true, false, false, false}
	thr, gain, ok := BestThresholdF(vals, labels, nil)
	if !ok {
		t.Fatal("expected ok")
	}
	if thr != 15 {
		t.Errorf("threshold = %v, want 15", thr)
	}
	if math.Abs(gain-1.0) > 1e-9 {
		t.Errorf("gain = %v, want 1.0", gain)
	}
}

func TestBestThresholdMissingScalesGain(t *testing.T) {
	vals := []float64{1, 2, 10, 20, missing, missing, missing, missing}
	labels := []bool{true, true, false, false, true, false, true, false}
	_, gain, ok := BestThresholdF(vals, labels, nil)
	if !ok {
		t.Fatal("expected ok")
	}
	// Perfect split on the 4 known values, scaled by known fraction 0.5.
	if math.Abs(gain-0.5) > 1e-9 {
		t.Errorf("gain = %v, want 0.5", gain)
	}
}

func TestBestThresholdDegenerate(t *testing.T) {
	if _, _, ok := BestThresholdF([]float64{5, 5, 5}, []bool{true, false, true}, nil); ok {
		t.Error("identical values should not produce a threshold")
	}
	if _, _, ok := BestThresholdF([]float64{5, missing}, []bool{true, false}, nil); ok {
		t.Error("single known value should not produce a threshold")
	}
	if _, _, ok := BestThresholdF(nil, nil, nil); ok {
		t.Error("empty input should not produce a threshold")
	}
}

func TestBestThresholdNeverSplitsTies(t *testing.T) {
	// Equal values must never be separated by the chosen threshold.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		vals := make([]float64, n)
		labels := make([]bool, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(5))
			labels[i] = rng.Intn(2) == 0
		}
		thr, _, ok := BestThresholdF(vals, labels, nil)
		if !ok {
			continue
		}
		for _, v := range vals {
			if v == thr {
				t.Fatalf("threshold %v collides with data value", thr)
			}
		}
	}
}

// TestBestThresholdSeparatesItsSplit pins lo <= t < hi where the plain
// midpoint leaves that interval: `value <= t` must select exactly the
// lower side the gain was scored on.
func TestBestThresholdSeparatesItsSplit(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		lo, hi float64
	}{
		{"sum overflows", 1e308, 1.7e308},
		{"upper is +Inf", 3, inf},
		// The midpoint of neighbours ties and rounds to the even mantissa: hi.
		{"adjacent floats", math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2)},
		{"lower is -Inf", -inf, 3},
		{"both infinite", -inf, inf},
		{"negative sum overflows", -1.7e308, -1e308},
		{"plain midpoint", 10, 20},
	} {
		vals := []float64{tc.lo, tc.lo, tc.hi, tc.hi}
		labels := []bool{true, true, false, false}
		thr, gain, ok := BestThresholdF(vals, labels, nil)
		if !ok || math.Abs(gain-1) > 1e-12 {
			t.Errorf("%s: ok=%v gain=%v, want a perfect split", tc.name, ok, gain)
			continue
		}
		if !(tc.lo <= thr && thr < tc.hi) {
			t.Errorf("%s: threshold %v outside [%v, %v)", tc.name, thr, tc.lo, tc.hi)
		}
	}
	if thr, _, _ := BestThresholdF([]float64{10, 20}, []bool{true, false}, nil); thr != 15 {
		t.Errorf("midpoint of 10 and 20 = %v, want 15", thr)
	}
}

// bestNominal tallies a nominal column ("" is a missing cell) into the
// per-value class counts, in string order, that BestNominalCounts takes.
func bestNominal(vals []string, labels []bool) (string, float64, bool) {
	byVal := map[string]*ClassCount{}
	var strs []string
	for i, v := range vals {
		if v == "" {
			continue
		}
		if byVal[v] == nil {
			byVal[v] = &ClassCount{}
			strs = append(strs, v)
		}
		if labels[i] {
			byVal[v].Pos++
		} else {
			byVal[v].Neg++
		}
	}
	sort.Strings(strs)
	counts := make([]ClassCount, len(strs))
	for i, s := range strs {
		counts[i] = *byVal[s]
	}
	best, gain, ok := BestNominalCounts(counts, len(vals))
	if !ok {
		return "", 0, false
	}
	return strs[best], gain, true
}

func TestBestNominalValue(t *testing.T) {
	vals := []string{"a", "a", "a", "b", "b", "c"}
	labels := []bool{true, true, true, false, false, false}
	v, gain, ok := bestNominal(vals, labels)
	if !ok {
		t.Fatal("expected ok")
	}
	if v != "a" {
		t.Errorf("value = %q, want a", v)
	}
	if math.Abs(gain-1.0) > 1e-9 {
		t.Errorf("gain = %v, want 1.0", gain)
	}
	// Half the column unknown: the same perfect split, scaled by 0.5.
	vals = append(vals, "", "", "", "", "", "")
	labels = append(labels, true, false, true, false, true, false)
	if _, gain, _ := bestNominal(vals, labels); math.Abs(gain-0.5) > 1e-9 {
		t.Errorf("gain with half the values missing = %v, want 0.5", gain)
	}
}

func TestBestNominalValueDegenerate(t *testing.T) {
	if _, _, ok := bestNominal([]string{"x", "x"}, []bool{true, false}); ok {
		t.Error("single-valued column should not be splittable")
	}
	if _, _, ok := bestNominal([]string{"", ""}, []bool{true, false}); ok {
		t.Error("all-missing column should not be splittable")
	}
}

func TestBestNominalValueDeterministicTies(t *testing.T) {
	// Two values with identical gain: the first in string order wins.
	v, _, ok := bestNominal([]string{"b", "a", "b", "a"}, []bool{true, false, true, false})
	if !ok || v != "a" {
		t.Errorf("tie resolved to %q (ok %v), want a", v, ok)
	}
}

// bestThresholdSortSlice is BestThresholdF as it was before it sorted a
// typed scratch buffer: a fresh slice ordered by sort.Slice.
func bestThresholdSortSlice(vals []float64, labels []bool) (t, gain float64, ok bool) {
	type vl struct {
		v   float64
		pos bool
	}
	known := make([]vl, 0, len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) {
			known = append(known, vl{v, labels[i]})
		}
	}
	if len(known) < 2 {
		return 0, 0, false
	}
	sort.Slice(known, func(a, b int) bool { return known[a].v < known[b].v })
	totalPos := 0
	for _, k := range known {
		if k.pos {
			totalPos++
		}
	}
	totalNeg := len(known) - totalPos
	knownFrac := float64(len(known)) / float64(len(vals))
	bestGain := -1.0
	var bestT float64
	posLe, negLe := 0, 0
	for i := 0; i < len(known)-1; i++ {
		if known[i].pos {
			posLe++
		} else {
			negLe++
		}
		if known[i].v == known[i+1].v {
			continue
		}
		g := GainFromCounts(posLe, negLe, totalPos-posLe, totalNeg-negLe)
		if g > bestGain {
			bestGain = g
			bestT = cutBetween(known[i].v, known[i+1].v)
		}
	}
	if bestGain < 0 {
		return 0, 0, false
	}
	return bestT, bestGain * knownFrac, true
}

// TestBestThresholdMatchesSortSlice holds BestThresholdF, sorting in a
// reused scratch, to the sort.Slice implementation bit for bit. The
// narrow pools give short columns dense in ties, ±0, ±Inf and NaN; half
// of them have no positive finite value, so a run of tied ±0 is often cut
// against +Inf — the one place the order of equal values shows in the
// threshold. The wide pool holds hundreds of distinct finite values
// beside those, in columns up to 2 000 long, so the run buffer grows
// several times within one column; its columns are cut to reach every
// branch: both zeros (the one column counts cannot reproduce), one zero,
// one distinct value (no cut) and fewer than two known values.
func TestBestThresholdMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	pools := [][]float64{
		{negZero, 0, inf, -inf, math.NaN(), 1, -1, 2.5, 5e-324},
		{negZero, 0, inf, -inf, math.NaN(), -1},
	}
	var sc ThresholdScratch
	check := func(vals []float64, labels []bool) (ok bool) {
		t.Helper()
		wantT, wantG, wantOK := bestThresholdSortSlice(vals, labels)
		gotT, gotG, gotOK := BestThresholdF(vals, labels, &sc)
		if gotOK != wantOK || math.Float64bits(gotT) != math.Float64bits(wantT) ||
			math.Float64bits(gotG) != math.Float64bits(wantG) {
			t.Fatalf("%v %v: got (%v, %v, %v), sort.Slice gives (%v, %v, %v)",
				vals, labels, gotT, gotG, gotOK, wantT, wantG, wantOK)
		}
		return wantOK
	}
	for trial := 0; trial < 4000; trial++ {
		pool := pools[trial%2]
		n := rng.Intn(120)
		vals, labels := make([]float64, n), make([]bool, n)
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
			labels[i] = rng.Intn(2) == 0
		}
		check(vals, labels)
	}

	wide := []float64{negZero, 0, inf, -inf, math.NaN()}
	for len(wide) < 400 {
		wide = append(wide, math.Round(rng.NormFloat64()*1e3)/8)
	}
	var branches [4]int // a split with both zeros, a split with one zero or none, no cut, < 2 known
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(2001)
		vals, labels := make([]float64, n), make([]bool, n)
		mode := trial % 5
		for i := range vals {
			switch mode {
			case 0: // anything: both zeros, as a rule
				vals[i] = wide[rng.Intn(len(wide))]
			case 1: // no −0
				vals[i] = wide[1+rng.Intn(len(wide)-1)]
			case 2: // no +0, few distinct values
				vals[i] = wide[[]int{0, 2, 3, 4, 5, 6}[rng.Intn(6)]]
			case 3: // one distinct value and unknowns
				vals[i] = []float64{math.NaN(), wide[5]}[rng.Intn(2)]
			case 4: // at most one known value
				vals[i] = math.NaN()
				if i == n/2 && trial%10 == 4 {
					vals[i] = wide[rng.Intn(len(wide))]
				}
			}
			labels[i] = rng.Intn(2) == 0
		}
		known, zeros := 0, [2]bool{}
		for _, v := range vals {
			if v == v {
				known++
			}
			if v == 0 {
				zeros[math.Float64bits(v)>>63] = true
			}
		}
		ok := check(vals, labels)
		switch {
		case known < 2:
			branches[3]++
		case !ok:
			branches[2]++
		case zeros[0] && zeros[1]:
			branches[0]++
		default:
			branches[1]++
		}
	}
	for b, c := range branches {
		if c < 20 {
			t.Errorf("branch %d reached by %d wide columns, want >= 20 (%v)", b, c, branches)
		}
	}
	if cap(sc.counts) < 256 {
		t.Errorf("the run buffer holds %d runs: no column reached a few hundred distinct values", cap(sc.counts))
	}
}

// TestBestThresholdReusesScratch pins the scratch contract: with a warm
// scratch, a call allocates nothing — on a narrow column, on one with
// hundreds of distinct values, and on a narrow one after the wide one.
func TestBestThresholdReusesScratch(t *testing.T) {
	vals := []float64{3, 1, math.NaN(), 2, 2, 9, 0}
	labels := []bool{true, false, true, false, true, true, false}
	rng := rand.New(rand.NewSource(5))
	wideVals, wideLabels := make([]float64, 1500), make([]bool, 1500)
	for i := range wideVals {
		wideVals[i] = float64(rng.Intn(600))
		wideLabels[i] = rng.Intn(2) == 0
	}
	mixed := append([]float64{math.Copysign(0, -1), 0}, vals...)
	mixedLabels := append([]bool{true, false}, labels...)
	var sc ThresholdScratch
	for _, col := range []struct {
		name   string
		vals   []float64
		labels []bool
	}{{"narrow", vals, labels}, {"wide", wideVals, wideLabels}, {"both zeros", mixed, mixedLabels}, {"narrow after wide", vals, labels}} {
		BestThresholdF(col.vals, col.labels, &sc)
		if allocs := testing.AllocsPerRun(50, func() { BestThresholdF(col.vals, col.labels, &sc) }); allocs != 0 {
			t.Errorf("%s: BestThresholdF with warm scratch allocates %v times per call, want 0", col.name, allocs)
		}
	}
}

// TestCountScorersMatchColumnScorers holds the count-based entry points
// to the column scorers on random columns — NaN, both zeros, both
// infinities, subnormals — given as distinct values with class counts,
// among them values with no instance (a working set that left them
// out), which must be skipped as if absent. BestThresholdCounts must be
// BestThresholdF bit for bit on every column but one holding both −0 and
// +0; BestNominalCounts must pick what the string-keyed helper picks.
func TestCountScorersMatchColumnScorers(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	pool := []float64{negZero, 0, inf, -inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1, 1.05, -3, 1e308}
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		vals, labels := make([]float64, n), make([]bool, n)
		for i := range vals {
			vals[i] = math.NaN()
			if rng.Intn(5) > 0 {
				vals[i] = pool[rng.Intn(len(pool))]
			}
			labels[i] = rng.Intn(2) == 0
		}
		// Every pool value, ascending, −0 before +0, with its counts.
		distinct := append([]float64(nil), pool...)
		sort.Slice(distinct, func(a, b int) bool {
			if distinct[a] != distinct[b] {
				return distinct[a] < distinct[b]
			}
			return math.Signbit(distinct[a]) && !math.Signbit(distinct[b])
		})
		counts := make([]ClassCount, len(distinct))
		zeros := [2]bool{}
		for i, v := range vals {
			for k, d := range distinct {
				if math.Float64bits(d) == math.Float64bits(v) {
					if labels[i] {
						counts[k].Pos++
					} else {
						counts[k].Neg++
					}
				}
			}
			if v == 0 {
				zeros[math.Float64bits(v)>>63] = true
			}
		}
		if zeros[0] && zeros[1] {
			continue // the one column counts cannot score
		}
		wantT, wantG, wantOK := BestThresholdF(vals, labels, nil)
		gotT, gotG, gotOK := BestThresholdCounts(distinct, counts, n)
		if gotOK != wantOK || math.Float64bits(gotT) != math.Float64bits(wantT) || math.Float64bits(gotG) != math.Float64bits(wantG) {
			t.Fatalf("%v %v: counts give (%v, %v, %v), BestThresholdF (%v, %v, %v)", vals, labels, gotT, gotG, gotOK, wantT, wantG, wantOK)
		}
		checked++

		// The same column as strings, each value its own rendering.
		strs := make([]string, n)
		for i, v := range vals {
			if v == v {
				strs[i] = fmt.Sprint(math.Float64bits(v))
			}
		}
		names := make([]string, len(distinct))
		for k, d := range distinct {
			names[k] = fmt.Sprint(math.Float64bits(d))
		}
		order := make([]int, len(distinct))
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
		byString := make([]ClassCount, len(order))
		for k, o := range order {
			byString[k] = counts[o]
		}
		wantV, wantNG, wantNOK := bestNominal(strs, labels)
		best, gotNG, gotNOK := BestNominalCounts(byString, n)
		gotV := ""
		if gotNOK {
			gotV = names[order[best]]
		}
		if gotNOK != wantNOK || gotV != wantV || math.Float64bits(gotNG) != math.Float64bits(wantNG) {
			t.Fatalf("%v %v: counts give (%q, %v, %v), by string (%q, %v, %v)", strs, labels, gotV, gotNG, gotNOK, wantV, wantNG, wantNOK)
		}
	}
	if checked < 1000 {
		t.Errorf("checked %d columns, want >= 1000", checked)
	}
}
