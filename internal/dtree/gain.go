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
	"math/bits"
	"slices"

	"perfxplain/internal/bitset"
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

// ThresholdScratch is BestThresholdF's reusable state: the table it
// counts each distinct value's labels in, and the sort buffer of its
// mixed-zero fallback. The zero value is ready; one scratch serves one
// call at a time, and a warm one serves a call without allocating.
type ThresholdScratch struct {
	// slots is an open-addressed table over distinct, a power of two
	// long and never more than half full: a slot holds 1 + the index of
	// the distinct value hashed there, or 0 when free. A call clears only
	// the slots it filled, so a table grown by a wide column costs a
	// narrow one nothing.
	slots    []int32
	distinct []valueCount
	known    []knownVal
}

// valueCount is one distinct known value of a column, the table slot it
// sits in, and its count and positive count.
type valueCount struct {
	v          float64
	slot       int
	count, pos int
}

// knownVal is one known value of a numeric column with its label.
type knownVal struct {
	v   float64
	pos bool
}

// minThresholdSlots is the table's first length; it doubles whenever
// more than half of its slots are taken.
const minThresholdSlots = 16

// BestThresholdF finds the numeric threshold t maximising the
// information gain of the partition (value <= t) vs (value > t) over a
// flat float column, considering C4.5-style midpoints between adjacent
// distinct observed values. NaN encodes an unknown value: it is skipped,
// and the returned gain is scaled by the known fraction. ok is false
// when fewer than two distinct known values exist. The threshold always
// separates the two values it was scored between: lo <= t < hi.
//
// A base feature's value is one both jobs of a pair share, so a column
// holds few distinct values. The labels are counted per distinct value
// in sc's table (a nil sc uses a fresh one) and only the distinct values
// are sorted: the scan over the cuts between them sees the counts a scan
// of the sorted column sees at its cuts, in the same order. That holds
// for every column but one that has both −0 and +0. The two are equal,
// so a sorted scan cuts only after their joint run, and where the cut
// falls back to its lower side (against +Inf) it yields whichever zero
// the sort left last. Such a column is sorted whole in sc's buffer by
// slices.SortFunc, which orders ties exactly as sort.Slice did (both are
// the same pdqsort); TestBestThresholdMatchesSortSlice pins both paths.
func BestThresholdF(vals []float64, labels []bool, sc *ThresholdScratch) (t, gain float64, ok bool) {
	if sc == nil {
		sc = new(ThresholdScratch)
	}
	known, mixedZeros := sc.count(vals, labels)
	sc.clearSlots()
	if known < 2 {
		return 0, 0, false
	}
	if mixedZeros {
		sc.sortedRuns(vals, labels)
	} else {
		slices.SortFunc(sc.distinct, func(a, b valueCount) int { return cmp.Compare(a.v, b.v) })
	}
	distinct := sc.distinct

	totalPos := 0
	for _, d := range distinct {
		totalPos += d.pos
	}
	totalNeg := known - totalPos
	knownFrac := float64(known) / float64(len(vals))

	bestGain := -1.0
	var bestT float64
	posLe, negLe := 0, 0
	for i := 0; i < len(distinct)-1; i++ {
		posLe += distinct[i].pos
		negLe += distinct[i].count - distinct[i].pos
		g := GainFromCounts(posLe, negLe, totalPos-posLe, totalNeg-negLe)
		if g > bestGain {
			bestGain = g
			bestT = cutBetween(distinct[i].v, distinct[i+1].v)
		}
	}
	if bestGain < 0 {
		return 0, 0, false // all values identical
	}
	return bestT, bestGain * knownFrac, true
}

// count tallies the known values of vals, keyed by their bits, into
// sc.distinct, and returns how many there are and whether both −0 and +0
// are among them.
func (sc *ThresholdScratch) count(vals []float64, labels []bool) (known int, mixedZeros bool) {
	if len(sc.slots) == 0 {
		sc.slots = make([]int32, minThresholdSlots)
	}
	sc.distinct = sc.distinct[:0]
	labels = labels[:len(vals)]
	var zeros uint64 // bit 1: a +0 was seen; bit 0: a −0
	for i, v := range vals {
		if v != v {
			continue // NaN: unknown
		}
		known++
		b := math.Float64bits(v)
		slots := sc.slots
		h := thresholdHash(b, len(slots))
		for slots[h] != 0 && math.Float64bits(sc.distinct[slots[h]-1].v) != b {
			h = (h + 1) & (len(slots) - 1)
		}
		if slots[h] == 0 {
			if v == 0 {
				zeros |= 1 << (b>>63 ^ 1)
			}
			sc.distinct = append(sc.distinct, valueCount{v: v, slot: h})
			slots[h] = int32(len(sc.distinct))
		}
		d := &sc.distinct[slots[h]-1]
		d.count++
		d.pos += int(bitset.B2u(labels[i]))
		if 2*len(sc.distinct) > len(slots) {
			sc.grow()
		}
	}
	return known, zeros == 3
}

// thresholdHash is the home slot of a value's bits in a table of n
// slots, n a power of two: the top bits of a Fibonacci hash.
func thresholdHash(b uint64, n int) int {
	return int(b * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(n))))
}

// grow doubles the table and re-slots every distinct value.
func (sc *ThresholdScratch) grow() {
	sc.slots = make([]int32, 2*len(sc.slots))
	mask := len(sc.slots) - 1
	for i := range sc.distinct {
		d := &sc.distinct[i]
		h := thresholdHash(math.Float64bits(d.v), len(sc.slots))
		for sc.slots[h] != 0 {
			h = (h + 1) & mask
		}
		d.slot, sc.slots[h] = h, int32(i+1)
	}
}

// clearSlots frees the slots the last count filled.
func (sc *ThresholdScratch) clearSlots() {
	for _, d := range sc.distinct {
		sc.slots[d.slot] = 0
	}
}

// sortedRuns replaces sc.distinct with the runs of equal known values of
// the column sorted whole in sc's buffer, each run carrying its last
// element's value: the path of a column holding both −0 and +0.
func (sc *ThresholdScratch) sortedRuns(vals []float64, labels []bool) {
	known := sc.known[:0]
	for i, v := range vals {
		if v == v {
			known = append(known, knownVal{v, labels[i]})
		}
	}
	sc.known = known
	slices.SortFunc(known, func(a, b knownVal) int { return cmp.Compare(a.v, b.v) })
	runs := sc.distinct[:0]
	for i, k := range known {
		if i == 0 || k.v != known[i-1].v {
			runs = append(runs, valueCount{})
		}
		r := &runs[len(runs)-1]
		r.v = k.v
		r.count++
		r.pos += int(bitset.B2u(k.pos))
	}
	sc.distinct = runs
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
