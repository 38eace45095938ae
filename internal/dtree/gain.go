// Package dtree scores binary splits the way C4.5 does, which is all of
// the decision-tree machinery PerfXplain's Algorithm 1 borrows (paper
// Section 4.2): information gain over binary-labeled instances, the best
// threshold of a numeric attribute, and the best value of a nominal one.
// Algorithm 1 picks one best predicate per feature and grows a
// conjunction; it builds no tree, and neither does this package.
//
// Labels are booleans; by PerfXplain convention true = "performed as
// observed" and false = "performed as expected". Missing attribute values
// are handled as in C4.5: they are excluded from a split's partition
// counts and the resulting gain is scaled by the fraction of instances
// whose value is known.
package dtree

import (
	"cmp"
	"math"
	"slices"

	"perfxplain/internal/stats"
)

// GainFromCounts returns the information gain of a binary partition given
// the positive/negative counts inside and outside the satisfying side.
func GainFromCounts(posIn, negIn, posOut, negOut int) float64 {
	nIn := posIn + negIn
	nOut := posOut + negOut
	n := nIn + nOut
	if n == 0 {
		return 0
	}
	h := stats.Entropy2(posIn+posOut, negIn+negOut)
	hIn := stats.Entropy2(posIn, negIn)
	hOut := stats.Entropy2(posOut, negOut)
	cond := (float64(nIn)*hIn + float64(nOut)*hOut) / float64(n)
	return h - cond
}

// ThresholdScratch is BestThresholdF's reusable sort buffer. The zero
// value is ready; one scratch serves one call at a time.
type ThresholdScratch struct {
	known []knownVal
}

// knownVal is one known value of a numeric column with its label.
type knownVal struct {
	v   float64
	pos bool
}

// BestThresholdF finds the numeric threshold t maximising the
// information gain of the partition (value <= t) vs (value > t) over a
// flat float column, considering C4.5-style midpoints between adjacent
// distinct observed values. NaN encodes an unknown value: it is skipped,
// and the returned gain is scaled by the known fraction. ok is false
// when fewer than two distinct known values exist. The threshold always separates the two values it was
// scored between: lo <= t < hi.
//
// The known values are sorted in sc's buffer (a nil sc uses a fresh
// one). The counts at a cut do not depend on how the sort orders equal
// values — the scan only cuts between distinct ones — and neither does
// the cut, but in one corner: a run of tied -0 and +0 cut against an
// infinite neighbour yields its last element. slices.SortFunc orders
// ties exactly as sort.Slice did (both are the same pdqsort), which
// TestBestThresholdMatchesSortSlice pins.
func BestThresholdF(vals []float64, labels []bool, sc *ThresholdScratch) (t, gain float64, ok bool) {
	if sc == nil {
		sc = new(ThresholdScratch)
	}
	known := sc.known[:0]
	for i, v := range vals {
		if !math.IsNaN(v) {
			known = append(known, knownVal{v, labels[i]})
		}
	}
	sc.known = known
	if len(known) < 2 {
		return 0, 0, false
	}
	slices.SortFunc(known, func(a, b knownVal) int { return cmp.Compare(a.v, b.v) })

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
			continue // not a cut point
		}
		g := GainFromCounts(posLe, negLe, totalPos-posLe, totalNeg-negLe)
		if g > bestGain {
			bestGain = g
			bestT = cutBetween(known[i].v, known[i+1].v)
		}
	}
	if bestGain < 0 {
		return 0, 0, false // all values identical
	}
	return bestT, bestGain * knownFrac, true
}

// cutBetween returns the C4.5 midpoint of two adjacent distinct values
// lo < hi, or lo when the midpoint leaves [lo, hi) — the sum overflowed,
// an end is infinite, or the two are neighbouring floats and the midpoint
// rounded up — so that `value <= t` is exactly the lower side of the
// split.
func cutBetween(lo, hi float64) float64 {
	if mid := (lo + hi) / 2; mid >= lo && mid < hi {
		return mid
	}
	return lo
}

// NominalCount is one distinct nominal value's class counts, the input
// unit of BestNominalFromCounts.
type NominalCount struct {
	Value    string
	Pos, Neg int
}

// BestNominalFromCounts picks the nominal value maximising the gain of
// the (value == v) vs (value != v) partition from precomputed per-value
// class counts, which MUST be sorted by Value — the sequential tie-break
// (first maximum in string order) is part of the contract. total is the
// number of instances including unknowns, the known-fraction denominator.
// The partitions of `f = v` and `f != v` are identical, so the caller
// chooses the predicate direction; the gain is the same. ok is false when
// fewer than two distinct known values exist.
func BestNominalFromCounts(counts []NominalCount, total int) (v string, gain float64, ok bool) {
	if len(counts) < 2 {
		return "", 0, false
	}
	totalPos, totalKnown := 0, 0
	for _, c := range counts {
		totalPos += c.Pos
		totalKnown += c.Pos + c.Neg
	}
	totalNeg := totalKnown - totalPos
	knownFrac := float64(totalKnown) / float64(total)

	bestGain := -1.0
	var bestVal string
	for _, c := range counts {
		g := GainFromCounts(c.Pos, c.Neg, totalPos-c.Pos, totalNeg-c.Neg)
		if g > bestGain {
			bestGain = g
			bestVal = c.Value
		}
	}
	return bestVal, bestGain * knownFrac, true
}
