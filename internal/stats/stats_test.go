package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		if got := Mean(tt.in); !almostEqual(got, tt.want) {
			t.Errorf("%s: Mean(%v) = %v, want %v", tt.name, tt.in, got, tt.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(32.0/7.0))
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev single = %v, want 0", got)
	}
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev nil = %v, want 0", got)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := BinaryEntropy(0.5); !almostEqual(got, 1) {
		t.Errorf("H(0.5) = %v, want 1", got)
	}
	if got := BinaryEntropy(0); got != 0 {
		t.Errorf("H(0) = %v, want 0", got)
	}
	if got := BinaryEntropy(1); got != 0 {
		t.Errorf("H(1) = %v, want 0", got)
	}
	// The paper's worked example: p = 0.6 gives entropy about 0.97.
	if got := BinaryEntropy(0.6); math.Abs(got-0.971) > 0.001 {
		t.Errorf("H(0.6) = %v, want ~0.971", got)
	}
}

func TestEntropy2(t *testing.T) {
	if got := Entropy2(0, 0); got != 0 {
		t.Errorf("Entropy2(0,0) = %v, want 0", got)
	}
	if got := Entropy2(3, 3); !almostEqual(got, 1) {
		t.Errorf("Entropy2(3,3) = %v, want 1", got)
	}
	if got := Entropy2(6, 4); math.Abs(got-0.971) > 0.001 {
		t.Errorf("Entropy2(6,4) = %v, want ~0.971", got)
	}
}

// Property: entropy is bounded in [0,1] and symmetric in its classes.
func TestEntropyProperties(t *testing.T) {
	f := func(pos, neg uint8) bool {
		h := Entropy2(int(pos), int(neg))
		hSym := Entropy2(int(neg), int(pos))
		return h >= 0 && h <= 1+1e-12 && almostEqual(h, hSym)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// percentileRanks is PercentileRanks into buffers that start out holding
// garbage, as recycled ones do.
func percentileRanks(xs []float64) []float64 {
	ranks, idx := make([]float64, len(xs)), make([]int, len(xs))
	for i := range xs {
		ranks[i], idx[i] = -7, len(xs)-i
	}
	PercentileRanks(ranks, idx, xs)
	return ranks
}

func TestPercentileRanks(t *testing.T) {
	got := percentileRanks([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
	// Ties share the mid-rank.
	got = percentileRanks([]float64{1, 1, 2})
	if !almostEqual(got[0], got[1]) {
		t.Errorf("tied values got different ranks: %v", got)
	}
	if !almostEqual(got[2], 1) {
		t.Errorf("max value rank = %v, want 1", got[2])
	}
	PercentileRanks(nil, nil, nil) // no values, nothing to write
	single := percentileRanks([]float64{42})
	if len(single) != 1 || single[0] != 1 {
		t.Errorf("single-element ranks = %v, want [1]", single)
	}
}

// Property: ranks lie in [0,1] and preserve ordering of the inputs.
func TestPercentileRanksProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) {
				xs[i] = 0
			}
		}
		rs := percentileRanks(xs)
		for i := range xs {
			if rs[i] < 0 || rs[i] > 1 {
				return false
			}
			for j := range xs {
				if xs[i] < xs[j] && rs[i] >= rs[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimilar(t *testing.T) {
	tests := []struct {
		a, b float64
		want bool
	}{
		{100, 105, true},
		{100, 111, true},  // 11/111 is still within 10% of the larger value
		{100, 112, false}, // 12/112 is just outside
		{0, 0, true},
		{0, 1, false},
		{-100, -105, true},
		{-100, 100, false},
	}
	for _, tt := range tests {
		if got := Similar(tt.a, tt.b); got != tt.want {
			t.Errorf("Similar(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: similarity is symmetric and reflexive.
func TestSimilarProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return Similar(a, b) == Similar(b, a) && Similar(a, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// similarRef is SimilarTol as it was written before it was made
// call-free: math.Max for the scale and an explicit zero-scale branch.
// The pair kernels' SimilarTol must be the same function, bit pattern
// for bit pattern.
func similarRef(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return diff <= 0.10*scale
}

func TestSimilarMatchesReference(t *testing.T) {
	check := func(a, b float64) {
		t.Helper()
		if got, want := Similar(a, b), similarRef(a, b); got != want {
			t.Fatalf("Similar(%v [%#x], %v [%#x]) = %v, reference %v",
				a, math.Float64bits(a), b, math.Float64bits(b), got, want)
		}
	}
	negZero := math.Copysign(0, -1)
	edge := []float64{0, negZero, 1, -1, 1.1, 1.1000000000000001, 1.0999999999999999,
		1e-310, -1e-310, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range edge {
		for _, b := range edge {
			check(a, b)
		}
	}
	// Every bit pattern is fair game: NaN payloads, subnormals, both
	// infinities. Half the draws perturb a's low bits instead, so the
	// pair lands near the band's edge far more often than chance allows.
	rng := rand.New(rand.NewSource(20120827))
	for i := 0; i < 1_000_000; i++ {
		a := math.Float64frombits(rng.Uint64())
		b := math.Float64frombits(rng.Uint64())
		if i&1 == 1 {
			b = a * (1 + 0.25*(rng.Float64()-0.5))
		}
		check(a, b)
	}
}

// Property the numeric blocking classes rest on (core.blockClassesOf):
// the band is convex. If a and b are Similar, so is every pair of values
// between them — in floating point, not only on paper — which is what
// lets a component whose two ends are Similar skip the per-pair check.
// The far end is the last representable b still Similar to a, where a
// rounding slip would show first.
func TestSimilarBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		a := math.Ldexp(1+rng.Float64(), rng.Intn(2090)-1074) // subnormal to near overflow
		if trial&1 == 1 {
			a = -a
		}
		// The last b still Similar to a, by bisection over the bit
		// patterns of the magnitude (monotone in the value).
		mag := math.Abs(a)
		ok, no := math.Float64bits(mag), math.Float64bits(mag*1.2)+2
		for no-ok > 1 {
			mid := ok + (no-ok)/2
			if Similar(mag, math.Float64frombits(mid)) {
				ok = mid
			} else {
				no = mid
			}
		}
		b := math.Copysign(math.Float64frombits(ok), a)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		for k := 0; k < 50; k++ {
			x := lo + (hi-lo)*rng.Float64()
			y := lo + (hi-lo)*rng.Float64()
			if k < 10 { // hug the ends
				x, y = lo, hi
				for s := rng.Intn(4); s > 0; s-- {
					x = math.Nextafter(x, hi)
				}
				for s := rng.Intn(4); s > 0; s-- {
					y = math.Nextafter(y, lo)
				}
			}
			if x < lo || x > hi || y < lo || y > hi {
				continue
			}
			if !Similar(x, y) {
				t.Fatalf("Similar(%v, %v) holds but Similar(%v, %v), between them, does not", a, b, x, y)
			}
		}
	}
}

var similarSink bool

func BenchmarkSimilar(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = 100 * (1 + 0.3*rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarSink = Similar(xs[i&1023], xs[(i+7)&1023]) != similarSink
	}
}

func TestDeriveRandIndependence(t *testing.T) {
	a := DeriveRand(7, "workload")
	b := DeriveRand(7, "sampling")
	c := DeriveRand(7, "workload")
	va, vb, vc := a.Int63(), b.Int63(), c.Int63()
	if va == vb {
		t.Error("different streams produced identical first values")
	}
	if va != vc {
		t.Error("same seed+stream not reproducible")
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 10); got != 5 {
		t.Errorf("Clamp(5,0,10) = %v", got)
	}
	if got := Clamp(-5, 0, 10); got != 0 {
		t.Errorf("Clamp(-5,0,10) = %v", got)
	}
	if got := Clamp(15, 0, 10); got != 10 {
		t.Errorf("Clamp(15,0,10) = %v", got)
	}
}
