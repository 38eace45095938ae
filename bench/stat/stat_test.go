package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Descending, so a function that forgot to sort fails.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{seq(240), 120.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := Median(nil); !math.IsNaN(got) {
		t.Errorf("Median(nil) = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median reordered its argument: %v", xs)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints, since that is how the benchmark's acceptance spread is defined.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 3}, 1, 3},
		{seq(10), 2.75, 8.25},
		{[]float64{0.8127, 0.79, 0.85, 0.81, 0.83, 0.80, 0.82, 0.84, 0.795, 0.805}, 0.79875, 0.8325},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := Quartiles([]float64{1}); !math.IsNaN(q1) || !math.IsNaN(q3) {
		t.Errorf("Quartiles of one value = %v, %v, want NaN, NaN", q1, q3)
	}
	if got := Spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The tail a sample supports is the highest percentile with at least ten
// samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {240, 95}, {999, 95}, {1000, 99}, {2000, 99}, {10000, 99.9},
	} {
		if got := TailPercent(c.n); got != c.pct {
			t.Errorf("TailPercent(%d) = %v, want %v", c.n, got, c.pct)
		}
	}

	// n = 9: too few for any percentile, so the maximum stands in.
	if pct, v := Tail(seq(9)); pct != 100 || v != 9 {
		t.Errorf("Tail(1..9) = p%v %v, want p100 9", pct, v)
	}
	// n = 40: p75 of 1..40 by linear interpolation is 1 + 0.75*39.
	if pct, v := Tail(seq(40)); pct != 75 || math.Abs(v-30.25) > 1e-12 {
		t.Errorf("Tail(1..40) = p%v %v, want p75 30.25", pct, v)
	}
	if pct, v := Tail(seq(240)); pct != 95 || math.Abs(v-(1+0.95*239)) > 1e-9 {
		t.Errorf("Tail(1..240) = p%v %v, want p95 %v", pct, v, 1+0.95*239)
	}
	if pct, v := Tail(seq(2000)); pct != 99 || math.Abs(v-(1+0.99*1999)) > 1e-9 {
		t.Errorf("Tail(1..2000) = p%v %v, want p99 %v", pct, v, 1+0.99*1999)
	}
	if pct, v := Tail(nil); pct != 0 || !math.IsNaN(v) {
		t.Errorf("Tail(nil) = p%v %v, want p0 NaN", pct, v)
	}
}

func TestQuantile(t *testing.T) {
	// Ranks 0..40 hold 1..41, so the p-quantile is 1 + 40p.
	for _, p := range []float64{0, 0.10, 0.25, 0.5, 0.90, 1} {
		if got, want := Quantile(seq(41), p), 1+40*p; math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(1..41, %v) = %v, want %v", p, got, want)
		}
	}
	if got := Quantile([]float64{4, 2}, 0.10); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("Quantile({4, 2}, 0.10) = %v, want 2.2", got)
	}
	if got := Quantile(nil, 0.10); !math.IsNaN(got) {
		t.Errorf("Quantile(nil) = %v, want NaN", got)
	}
}
