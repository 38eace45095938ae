package core

// The skip sampler of walkTiles and the rank sampler (rank.go):
// Bernoulli(keepP) thinning of a sequence of positions — an outer
// record's inner positions, a class's rank space — by drawing the gaps
// between kept positions, in integer arithmetic only. This file imports
// math/bits and internal/stats and nothing else (TestSkipSamplerImports):
// no logarithm, no floating-point operation whose result could differ
// between architectures reaches a sampling decision, so a thinned walk or
// rank draw keeps the same pairs on every GOARCH.
//
// The gap before the next kept position is geometric:
// P(gap >= g) = (1−keepP)^g. With Q = ⌊2⁶⁴·(1−keepP)⌋ the table
//
//	T[1] = Q,  T[g] = ⌊T[g−1]·Q / 2⁶⁴⌋   (g = 2..skipSpan)
//
// holds 2⁶⁴·(1−keepP)^g rounded down at every step, and a uniform 64-bit
// U inverts to gap = #{g >= 1 : U < T[g]} — P(gap >= g) = T[g]/2⁶⁴. A
// draw below T[skipSpan] means the gap is at least skipSpan: the sampler
// adds skipSpan and draws again, which memorylessness makes exact. The law
// is the iid Bernoulli(keepP) thinning up to the fixed-point floor: T[g]
// is short of 2⁶⁴·(1−keepP)^g by less than g units of 2⁻⁶⁴.

import (
	"math/bits"

	"perfxplain/internal/stats"
)

const (
	// skipSpan is the longest gap one draw resolves. At keepP just under
	// skipKeepP the table underflows to zero after ~330 entries and a
	// redraw never happens; at keepP = 0.003 a redraw happens on 5 % of
	// draws; a vanishing keepP redraws once per skipSpan positions of
	// room, still a thousand times fewer hashes than the dense loop.
	skipSpan = 1024
	// skipGuideBits indexes the guide table by U's top bits: as many
	// buckets as table entries, so a bucket holds one T value on average
	// and the scan after the lookup averages under one step. A finer
	// guide wins a micro-benchmark and loses the walk its cache.
	skipGuideBits  = 10
	skipGuideShift = 64 - skipGuideBits
)

// skipTable is the inversion table of one keep probability. It lives in
// the pooled tileBuf: a walk builds it in place, and finds it already
// built when the buffer last served a walk under the same keepP — every
// spec of a plan, and every plan over an unchanged pair space.
type skipTable struct {
	q uint64               // the Q the table was built for; 0 before the first build
	t [skipSpan + 1]uint64 // t[g] = T[g]; t[0] is unused
	// guide[b] is the gap of the largest U whose top bits are b — the
	// number of T values no U in the bucket reaches — from which a draw
	// scans upward.
	guide [1 << skipGuideBits]uint16
}

// skipQuantum is Q = ⌊2⁶⁴·(1−keepP)⌋ for keepP in (0, 1), taken as
// 2⁶⁴ − ⌈2⁶⁴·keepP⌉: scaling by a power of two is exact, the value
// converted is below 2⁶¹ — inside every architecture's float→integer
// range — and the subtraction happens in integers, so no bit depends on
// how a platform rounds or converts. A keepP below 2⁻⁶⁴ gives Q = 2⁶⁴−1,
// the smallest keep probability the table can express. From skipKeepP up
// (rates only the rank sampler uses), 2⁶⁴·keepP is an integer and a
// multiple of four, so it is converted at a quarter of its size and
// shifted back.
func skipQuantum(keepP float64) uint64 {
	if keepP >= skipKeepP {
		return -(uint64(keepP*(1<<62)) << 2)
	}
	x := keepP * (1 << 64)
	c := uint64(x)
	if float64(c) < x {
		c++
	}
	return -c
}

// build fills the table for q, unless it already holds it.
func (st *skipTable) build(q uint64) {
	if st.q == q {
		return
	}
	st.q = q
	st.t[1] = q
	for g := 2; g <= skipSpan; g++ {
		st.t[g], _ = bits.Mul64(st.t[g-1], q)
	}
	// T is non-increasing, so the count of T values at or above a
	// bucket's upper bound only grows as the buckets descend. The top
	// bucket's bound is 2⁶⁴, which nothing reaches.
	g := 0
	st.guide[len(st.guide)-1] = 0
	for b := len(st.guide) - 2; b >= 0; b-- {
		bound := uint64(b+1) << skipGuideShift
		for g < skipSpan && st.t[g+1] >= bound {
			g++
		}
		st.guide[b] = uint16(g)
	}
}

// skipStream is one outer record's stream of geometric gaps: draw k is
// the k'th output of a splitmix counter stream keyed on (seed, the
// outer's global record index), inverted through the walk's table — the
// number of Bernoulli(keepP) failures before the next success, so walking
// an inner sequence by these gaps keeps each position independently with
// probability keepP while touching only the kept ones.
type skipStream struct {
	state uint64
	k     uint64
	tab   *skipTable
}

func newSkipStream(seed uint64, i int, tab *skipTable) skipStream {
	return skipStream{
		state: stats.SplitMix64(seed ^ (uint64(i)*0x9e3779b97f4a7c15 + 0xbb67ae8584caa73b)),
		tab:   tab,
	}
}

// invert maps a uniform u >= T[skipSpan] to its gap #{g >= 1 : u < T[g]}:
// the guide entry of u's bucket, then a scan up the table that the bound
// on u stops at g+1 = skipSpan at the latest. A bucket holds one T value
// on average and which side of it u falls is a coin flip, so the first
// two steps are taken without a branch (the borrow of u − T[g+1] is the
// comparison); the loop after them rarely runs and predicts well.
func (st *skipTable) invert(u uint64) int {
	g := int(st.guide[u>>skipGuideShift])
	_, below := bits.Sub64(u, st.t[g+1], 0)
	g += int(below)
	_, below = bits.Sub64(u, st.t[g+1], 0)
	g += int(below)
	for u < st.t[g+1] {
		g++
	}
	return g
}

// next draws the next gap; ok is false when it reaches past the room
// positions left, ending the row. A row costs at most room/skipSpan
// redraws beyond its kept positions.
func (s *skipStream) next(room int) (gap int, ok bool) {
	tab := s.tab
	for {
		u := stats.SplitMix64(s.state ^ s.k)
		s.k++
		if u >= tab.t[skipSpan] {
			gap += tab.invert(u)
			return gap, gap < room
		}
		if room-gap <= skipSpan {
			return 0, false
		}
		gap += skipSpan
	}
}
