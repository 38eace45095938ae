// Package bitset provides the flat selection bitmaps of the batched
// predicate engine: one bit per pair, 64 pairs per word, little-endian
// within the word (bit i lives at word i>>6, position i&63).
//
// The predicate kernels (pxql compiled atoms, core's matrix atoms) fill
// these bitmaps with branch-light compare loops; clause composition then
// happens word-wise — And, AndNot, Or, popcount — so evaluating a
// conjunction over a pair shard costs O(atoms × pairs) plane scans plus
// O(clauses × words) bit operations instead of O(clauses × pairs × width)
// per-pair compares.
//
// Sets carry no length of their own: the owner sizes them with Make(n)
// and keeps the bit count alongside, the same convention as
// joblog.Bitmap. Kernels that fill a set for n bits must leave the tail
// bits of the last word clear (Ones does; every word-wise operation
// preserves it), so Count and the fused AndCount* helpers never need a
// length argument.
package bitset

import "math/bits"

// Set is a fixed-capacity bitmap backed by a []uint64.
type Set []uint64

// Words returns the number of words backing n bits.
func Words(n int) int { return (n + 63) >> 6 }

// Make returns a set with capacity for n bits, all clear.
func Make(n int) Set { return make(Set, Words(n)) }

// Get reports whether bit i is set.
func (s Set) Get(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetBit sets bit i.
func (s Set) SetBit(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Zero clears every bit.
func (s Set) Zero() {
	for w := range s {
		s[w] = 0
	}
}

// Ones sets the first n bits and clears any tail bits of the last word,
// the canonical "full selection" a conjunction kernel starts from.
func (s Set) Ones(n int) {
	for w := range s {
		s[w] = ^uint64(0)
	}
	if tail := uint(n) & 63; tail != 0 {
		s[len(s)-1] = (1 << tail) - 1
	}
}

// CopyFrom overwrites s with o. The two must have equal word counts.
func (s Set) CopyFrom(o Set) { copy(s, o) }

// AndWith intersects s with o in place (s &= o).
func (s Set) AndWith(o Set) {
	for w := range s {
		s[w] &= o[w]
	}
}

// OrWith unions o into s (s |= o).
func (s Set) OrWith(o Set) {
	for w := range s {
		s[w] |= o[w]
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// AndCount returns the popcount of a ∧ b without materializing it — the
// fused compose step of candidate scoring.
func AndCount(a, b Set) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

// AndCount3 returns the popcount of a ∧ b ∧ c without materializing it.
func AndCount3(a, b, c Set) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w] & c[w])
	}
	return n
}

// ForEach calls fn for every set bit in ascending order — the iteration
// primitive that keeps bitmap-composed pair sets in the exact order the
// per-pair loops they replaced produced.
func (s Set) ForEach(fn func(i int)) {
	for w, word := range s {
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// BlitFrom copies n bits of src, starting at bit from, into s starting
// at bit off, leaving every other bit of s untouched — the concatenation
// primitive for stitching per-segment bitmaps (whose lengths are rarely
// word-aligned) into one log-wide bitmap, and for cutting a run of rows
// out of one. s must have capacity for off+n bits, src for from+n.
func (s Set) BlitFrom(src Set, from, off, n int) {
	if uint(off)&63 == 0 && uint(from)&63 == 0 {
		// Word-aligned on both sides: whole-word copies, then the tail.
		full := n >> 6
		copy(s[off>>6:off>>6+full], src[from>>6:from>>6+full])
		from, off, n = from+full<<6, off+full<<6, n&63
	}
	for n > 0 {
		// The longest run that stays inside one word on both sides.
		k := min(n, 64-int(uint(off)&63), 64-int(uint(from)&63))
		mask := ^uint64(0) >> uint(64-k)
		run := src[from>>6] >> (uint(from) & 63) & mask
		sh := uint(off) & 63
		s[off>>6] = s[off>>6]&^(mask<<sh) | run<<sh
		from, off, n = from+k, off+k, n-k
	}
}

// FromBools builds a set from a bool slice (bit i = bs[i]).
func FromBools(bs []bool) Set {
	s := Make(len(bs))
	for i, b := range bs {
		if b {
			s.SetBit(i)
		}
	}
	return s
}

// B2u converts a comparison result to a 0/1 word without a branch (the
// compiler lowers it to SETcc) — the bit-build primitive every batched
// kernel shifts into its selection word.
func B2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
