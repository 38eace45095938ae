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
	"slices"

	"perfxplain/internal/bitset"
	"perfxplain/internal/stats"
)

// GainFromCounts returns the information gain of a binary partition given
// the positive/negative counts inside and outside the satisfying side.
func GainFromCounts(posIn, negIn, posOut, negOut int) float64 {
	if posIn+negIn+posOut+negOut == 0 {
		return 0
	}
	return gainGiven(stats.Entropy2(posIn+posOut, negIn+negOut), posIn, negIn, posOut, negOut)
}

// gainGiven is GainFromCounts of a non-empty partition whose whole set has
// entropy h, which a scan over one column's splits computes once.
func gainGiven(h float64, posIn, negIn, posOut, negOut int) float64 {
	nIn := posIn + negIn
	nOut := posOut + negOut
	hIn := stats.Entropy2(posIn, negIn)
	hOut := stats.Entropy2(posOut, negOut)
	// Each product is rounded on its own (an explicit conversion), so no
	// GOARCH fuses the sum into a multiply-add and the gain is the same
	// float everywhere.
	cond := (float64(float64(nIn)*hIn) + float64(float64(nOut)*hOut)) / float64(nIn+nOut)
	return h - cond
}

// ThresholdScratch is BestThresholdF's reusable state: the sort buffer
// of the column's known values and the runs they form. The zero value is
// ready; one scratch serves one call at a time, and a warm one serves a
// call without allocating.
type ThresholdScratch struct {
	known  []knownVal
	vals   []float64
	counts []ClassCount
}

// knownVal is one known value of a numeric column with its label.
type knownVal struct {
	v   float64
	pos bool
}

// ClassCount is the class counts of one distinct value of a column: the
// input unit of the count-based scorers, BestThresholdCounts and
// BestNominalCounts.
type ClassCount struct{ Pos, Neg int }

// BestThresholdF finds the numeric threshold t maximising the
// information gain of the partition (value <= t) vs (value > t) over a
// flat float column, considering C4.5-style midpoints between adjacent
// distinct observed values. NaN encodes an unknown value: it is skipped,
// and the returned gain is scaled by the known fraction. ok is false
// when fewer than two distinct known values exist. The threshold always
// separates the two values it was scored between: lo <= t < hi.
//
// The known values are sorted whole in sc's buffer (a nil sc uses a
// fresh one) by slices.SortFunc — the same pdqsort sort.Slice runs, so
// ties come out in the same order — and each run of equal values is one
// distinct value carrying its last element, which BestThresholdCounts
// then sweeps. Only a column holding both −0 and +0 can tell which
// element a run carries: the two are equal, so they form one run, and
// where a cut falls back to its lower side (against +Inf) it yields
// whichever zero the sort left last. Every other column is reproduced by
// its per-value counts alone; TestBestThresholdMatchesSortSlice pins
// both.
func BestThresholdF(vals []float64, labels []bool, sc *ThresholdScratch) (t, gain float64, ok bool) {
	if sc == nil {
		sc = new(ThresholdScratch)
	}
	known := sc.known[:0]
	for i, v := range vals {
		if v == v {
			known = append(known, knownVal{v, labels[i]})
		}
	}
	sc.known = known
	slices.SortFunc(known, func(a, b knownVal) int { return cmp.Compare(a.v, b.v) })
	runs, counts := sc.vals[:0], sc.counts[:0]
	for i, k := range known {
		if i == 0 || k.v != known[i-1].v {
			runs, counts = append(runs, 0), append(counts, ClassCount{})
		}
		runs[len(runs)-1] = k.v
		c := &counts[len(counts)-1]
		c.Pos += int(bitset.B2u(k.pos))
		c.Neg += int(bitset.B2u(!k.pos))
	}
	sc.vals, sc.counts = runs, counts
	return BestThresholdCounts(runs, counts, len(vals))
}

// BestThresholdCounts is BestThresholdF over a column given as its
// distinct known values, ascending, with each value's class counts in
// step; total is the number of instances including unknowns, the
// known-fraction denominator. A value with no instance (both counts
// zero) is skipped, as if absent, so one list of values can serve every
// subset of the instances. The sweep sees the counts a sweep of the
// sorted column sees at its cuts, in the same order, so the threshold and
// gain are BestThresholdF's bit for bit on every column whose distinct
// values are distinct floats — all but one holding both −0 and +0 (see
// BestThresholdF).
func BestThresholdCounts(vals []float64, counts []ClassCount, total int) (t, gain float64, ok bool) {
	counts = counts[:len(vals)]
	totalPos, totalNeg := 0, 0
	for _, c := range counts {
		totalPos += c.Pos
		totalNeg += c.Neg
	}
	if totalPos+totalNeg < 2 {
		return 0, 0, false
	}
	knownFrac := float64(totalPos+totalNeg) / float64(total)
	h := stats.Entropy2(totalPos, totalNeg)

	bestGain := -1.0
	var bestT float64
	posLe, negLe := 0, 0
	prev := -1 // the last value with an instance
	for i, c := range counts {
		if c.Pos+c.Neg == 0 {
			continue
		}
		if prev >= 0 {
			g := gainGiven(h, posLe, negLe, totalPos-posLe, totalNeg-negLe)
			if g > bestGain {
				bestGain = g
				bestT = cutBetween(vals[prev], vals[i])
			}
		}
		posLe += c.Pos
		negLe += c.Neg
		prev = i
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

// BestNominalCounts picks the nominal value maximising the gain of the
// (value == v) vs (value != v) partition from per-value class counts,
// which MUST be in the values' string order — the sequential tie-break
// (first maximum in string order) is part of the contract — and returns
// its index in counts. A value with no instance is skipped, as if absent.
// total is the number of instances including unknowns, the
// known-fraction denominator. The partitions of `f = v` and `f != v` are
// identical, so the caller chooses the predicate direction; the gain is
// the same. ok is false when fewer than two values have instances.
//
// Of exactly two values, each is the other's complement: the second's
// gain is the first's sum of the same two products in the other order,
// the same float, so the first wins without the second being scored.
func BestNominalCounts(counts []ClassCount, total int) (best int, gain float64, ok bool) {
	totalPos, totalKnown, present := 0, 0, 0
	for _, c := range counts {
		totalPos += c.Pos
		totalKnown += c.Pos + c.Neg
		present += int(bitset.B2u(c.Pos+c.Neg > 0))
	}
	if present < 2 {
		return 0, 0, false
	}
	totalNeg := totalKnown - totalPos
	knownFrac := float64(totalKnown) / float64(total)
	h := stats.Entropy2(totalPos, totalNeg)

	bestGain := -1.0
	for i, c := range counts {
		if c.Pos+c.Neg == 0 {
			continue
		}
		g := gainGiven(h, c.Pos, c.Neg, totalPos-c.Pos, totalNeg-c.Neg)
		if g > bestGain {
			bestGain, best = g, i
		}
		if present == 2 {
			break
		}
	}
	return best, bestGain * knownFrac, true
}
