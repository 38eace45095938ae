package relief

// Regression tests pinning the parallelized neighbour searches:
// RReliefF weights must be bit-identical at every worker count —
// parallelism moves the searches onto the pool but never the order of
// the floating-point accumulation.

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits compares float slices exactly, by bit pattern, so a changed
// accumulation order cannot hide behind an epsilon.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: weight %d = %v (bits %x), serial %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestRegressionWeightsParallelBitIdentical(t *testing.T) {
	log := regressionLog(300, rand.New(rand.NewSource(6)))
	serial, err := RegressionWeights(log, "duration", Config{K: 7, M: 120,
		Rand: rand.New(rand.NewSource(11)), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 0} {
		got, err := RegressionWeights(log, "duration", Config{K: 7, M: 120,
			Rand: rand.New(rand.NewSource(11)), Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "RegressionWeights", got, serial)
	}
}

// TestRegressionWeightsParallelMixed exercises the pool path on a log
// with nominal attributes and missing values (the probabilistic-diff
// branches), where accumulation-order bugs would actually move bits.
func TestRegressionWeightsParallelMixed(t *testing.T) {
	log := mixedLog(250, rand.New(rand.NewSource(7)))
	serial, err := RegressionWeights(log, "duration", Config{K: 5,
		Rand: rand.New(rand.NewSource(13)), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RegressionWeights(log, "duration", Config{K: 5,
		Rand: rand.New(rand.NewSource(13)), Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "RegressionWeights mixed", got, serial)
}
