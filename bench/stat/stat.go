// Package stat holds the few order statistics the benchmark reports: a
// median, quartiles, and the tail percentile a sample is large enough to
// support.
package stat

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the p-quantile of sorted s by linear interpolation between
// closest ranks; p is clamped to [0, 1]. An empty sample gives NaN.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	p = math.Min(math.Max(p, 0), 1)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Quantile returns the p-quantile of xs, 0 <= p <= 1, by linear
// interpolation between closest ranks; NaN when xs is empty.
func Quantile(xs []float64, p float64) float64 { return quantile(sorted(xs), p) }

// Median returns the middle of xs (the mean of the two middle values for
// an even count), NaN when xs is empty.
func Median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// Quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is how the benchmark's run-to-run spread is defined. It needs two
// values; with fewer both results are NaN.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Python: j = i*(n+1)//4 clamped to [1, n-1], delta = i*(n+1) - j*4,
		// result = (s[j-1]*(4-delta) + s[j]*delta) / 4.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles of xs as a share of its
// median: the benchmark's measure of run-to-run noise.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}

// TailPercent is the highest of the percentiles 50, 75, 90, 95, 99 and
// 99.9 that still has at least ten of n samples beyond it; 0 when n is
// too small for any of them (n < 20).
func TailPercent(n int) float64 {
	best := 0.0
	for _, pct := range []float64{50, 75, 90, 95, 99, 99.9} {
		// Floor with a small tolerance: 0.05*200 is 10.000000000000002.
		if beyond := math.Floor(float64(n)*(100-pct)/100 + 1e-9); beyond >= 10 {
			best = pct
		}
	}
	return best
}

// Tail returns TailPercent(len(xs)) and the value of xs at it. With too
// few samples it reports the maximum as percentile 100.
func Tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, math.NaN()
	}
	pct = TailPercent(len(s))
	if pct == 0 {
		return 100, s[len(s)-1]
	}
	return pct, quantile(s, pct/100)
}
