// Package stats provides the small numeric helpers shared across the
// PerfXplain reproduction: means and deviations, percentile ranks used by
// the explanation scorer, binary entropy for the information-gain search,
// and deterministic RNG derivation so every experiment is reproducible
// from a single seed.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or 0 when fewer than two values are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// BinaryEntropy returns H(p) = -p log2 p - (1-p) log2 (1-p) in bits.
// The limits H(0) = H(1) = 0 are handled explicitly.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Entropy2 returns the entropy in bits of a two-class set with pos
// positive and neg negative members. An empty set has zero entropy.
func Entropy2(pos, neg int) float64 {
	n := pos + neg
	if n == 0 {
		return 0
	}
	return BinaryEntropy(float64(pos) / float64(n))
}

// PercentileRanks maps each value in xs to its percentile rank in [0,1]:
// the fraction of values strictly below it plus half the fraction of
// equal values (the standard mid-rank convention, so ties share a rank).
// This is the normalizeScore transformation of Algorithm 1: raw precision
// and generality values are replaced by their ranks before being blended,
// so the two scales cannot drown each other out.
func PercentileRanks(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []float64{1}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		// Members of the tie group [i, j) all receive the mid-rank.
		below := float64(i)
		equal := float64(j - i)
		r := (below + (equal-1)/2) / float64(n-1)
		for k := i; k < j; k++ {
			ranks[idx[k]] = r
		}
		i = j
	}
	return ranks
}

// Similar reports whether a and b are within 10% of one another, the
// SIM band the paper uses for compare features (Section 3.1, footnote 1).
// The tolerance is taken relative to the larger magnitude so the relation
// is symmetric; two zeros are similar.
func Similar(a, b float64) bool {
	return SimilarTol(a, b, 0.10)
}

// SimilarTol is Similar with an explicit relative tolerance. A NaN on
// either side makes the difference NaN, which fails the comparison
// whatever the scale, and two zeros pass it as 0 <= 0 — so neither case
// needs a branch and the body stays small enough to inline into the pair
// kernels.
func SimilarTol(a, b, tol float64) bool {
	scale := math.Abs(a)
	if y := math.Abs(b); y > scale {
		scale = y
	}
	return math.Abs(a-b) <= tol*scale
}

// DeriveRand deterministically derives an independent generator from a
// parent seed and a stream label, so subsystems (workload noise, sampling,
// cross-validation splits) draw from decoupled streams: changing how many
// values one subsystem consumes never perturbs another.
func DeriveRand(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(int64(DeriveSeed(seed, stream))))
}

// DeriveSeed is DeriveRand's mixing step exposed directly: a 64-bit seed
// for the (parent seed, stream) pair. Counter-based samplers (SplitMix64
// over a per-item key) start from this, which is what lets sharded
// enumeration stay byte-identical at every parallelism level — the
// decision for an item depends only on the derived seed and the item,
// never on how many draws other shards consumed.
func DeriveSeed(seed int64, stream string) uint64 {
	h := uint64(seed)
	for _, c := range stream {
		h = h*1099511628211 + uint64(c) // FNV-style mixing
	}
	return h
}

// SplitMix64 is the splitmix64 finalizer: a bijective avalanche mix of a
// 64-bit key. Feeding it seed^key gives a stateless, order-independent
// uniform hash — the building block for counter-based Bernoulli draws.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeepFloat maps a 64-bit key to a uniform float in [0, 1) via
// SplitMix64; Keep-style subsamplers compare it against a probability.
func KeepFloat(seed, key uint64) float64 {
	return float64(SplitMix64(seed^key)>>11) / (1 << 53)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
