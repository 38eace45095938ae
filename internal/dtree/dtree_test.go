package dtree

import (
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
	thr, gain, ok := BestThresholdF(vals, labels)
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
	_, gain, ok := BestThresholdF(vals, labels)
	if !ok {
		t.Fatal("expected ok")
	}
	// Perfect split on the 4 known values, scaled by known fraction 0.5.
	if math.Abs(gain-0.5) > 1e-9 {
		t.Errorf("gain = %v, want 0.5", gain)
	}
}

func TestBestThresholdDegenerate(t *testing.T) {
	if _, _, ok := BestThresholdF([]float64{5, 5, 5}, []bool{true, false, true}); ok {
		t.Error("identical values should not produce a threshold")
	}
	if _, _, ok := BestThresholdF([]float64{5, missing}, []bool{true, false}); ok {
		t.Error("single known value should not produce a threshold")
	}
	if _, _, ok := BestThresholdF(nil, nil); ok {
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
		thr, _, ok := BestThresholdF(vals, labels)
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
		thr, gain, ok := BestThresholdF(vals, labels)
		if !ok || math.Abs(gain-1) > 1e-12 {
			t.Errorf("%s: ok=%v gain=%v, want a perfect split", tc.name, ok, gain)
			continue
		}
		if !(tc.lo <= thr && thr < tc.hi) {
			t.Errorf("%s: threshold %v outside [%v, %v)", tc.name, thr, tc.lo, tc.hi)
		}
	}
	if thr, _, _ := BestThresholdF([]float64{10, 20}, []bool{true, false}); thr != 15 {
		t.Errorf("midpoint of 10 and 20 = %v, want 15", thr)
	}
}

// bestNominal tallies a nominal column ("" is a missing cell) into the
// sorted per-value class counts BestNominalFromCounts takes.
func bestNominal(vals []string, labels []bool) (string, float64, bool) {
	byVal := map[string]*NominalCount{}
	var counts []NominalCount
	for i, v := range vals {
		if v == "" {
			continue
		}
		if byVal[v] == nil {
			byVal[v] = &NominalCount{Value: v}
		}
		if labels[i] {
			byVal[v].Pos++
		} else {
			byVal[v].Neg++
		}
	}
	for _, c := range byVal {
		counts = append(counts, *c)
	}
	sort.Slice(counts, func(a, b int) bool { return counts[a].Value < counts[b].Value })
	return BestNominalFromCounts(counts, len(vals))
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
