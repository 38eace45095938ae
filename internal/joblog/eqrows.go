package joblog

// Per-column equality-row bitmaps: the set of rows whose plane value
// equals a constant, as a bitmap — the primitive behind despite-clause
// prefilters (every despite atom is an equality over a base feature).
// Bitmaps are memoized on the Columns view like every derived
// aggregate, and a store's snapshots install a buildEqRows hook that
// blits per-segment bitmaps memoized on the sealed segments themselves
// and scans the tail — so an append invalidates only the tail's
// contribution and sealed segments' atom bitmaps survive watermark
// advances, byte-identical to a fresh build.

import "math"

// eqRowsKey memoizes one equality bitmap per (field, constant). bits is
// the numeric value's bit pattern or the symbol ID; none marks
// constants that can never match through the planes (missing values,
// kind mismatches, never-interned symbols).
type eqRowsKey struct {
	f    int
	bits uint64
	none bool
}

// EqualRowsBitmap returns the bitmap of rows whose f'th plane value
// equals v, memoized on the view. Matching is ColIndex.EqualNum/EqualSym,
// which over planes holding every cell exactly is Value.Equal: missing
// rows never match and NaN matches nothing. The returned bitmap is
// shared across callers and must not be mutated.
func (c *Columns) EqualRowsBitmap(f int, v Value) Bitmap {
	key := eqRowsKey{f: f, none: true}
	col := c.Col(f)
	switch {
	case v.IsMissing() || v.Kind != col.Kind:
	case col.Kind == Numeric:
		key = eqRowsKey{f: f, bits: math.Float64bits(v.Num)}
	default:
		if id, ok := c.intern.Lookup(v.Str); ok {
			key = eqRowsKey{f: f, bits: uint64(id)}
		}
	}
	return c.equalPlaneRows(key)
}

// equalPlaneRows builds and memoizes the bitmap for a resolved key.
// The index seek (or a snapshot hook's per-segment blitting) runs
// before Memo publishes the result, so the build never re-enters the
// memo lock; racing builders at worst duplicate work and publish
// identical bitmaps.
func (c *Columns) equalPlaneRows(key eqRowsKey) Bitmap {
	if v, ok := c.memoGet(key); ok {
		return v.(Bitmap)
	}
	var bm Bitmap
	switch {
	case key.none:
		bm = NewBitmap(c.n)
	case c.buildEqRows != nil:
		bm = c.buildEqRows(key)
	default:
		bm = eqRowsFromIndex(c.SortedIndex(key.f), c.Col(key.f), key, c.n)
	}
	v := c.Memo(key, func() any { return bm })
	return v.(Bitmap)
}

// eqRowsFromIndex scatters an index equality seek into a fresh bitmap.
func eqRowsFromIndex(ix *ColIndex, col *Col, key eqRowsKey, n int) Bitmap {
	out := NewBitmap(n)
	var rows []int32
	if col.Kind == Numeric {
		rows = ix.EqualNum(math.Float64frombits(key.bits))
	} else {
		rows = ix.EqualSym(uint32(key.bits))
	}
	for _, r := range rows {
		out.SetBit(int(r))
	}
	return out
}

// setEqualRows sets bit i-off of out for every row i in [lo, hi) whose
// plane value in col equals the resolved key: the scan behind a sealed
// segment's memoized bitmap and a snapshot's tail.
func setEqualRows(out Bitmap, col *Col, key eqRowsKey, lo, hi, off int) {
	if col.Kind == Numeric {
		x := math.Float64frombits(key.bits)
		for i := lo; i < hi; i++ {
			if !col.Miss.Get(i) && col.Num[i] == x {
				out.SetBit(i - off)
			}
		}
		return
	}
	id := uint32(key.bits)
	for i := lo; i < hi; i++ {
		if !col.Miss.Get(i) && col.Sym[i] == id {
			out.SetBit(i - off)
		}
	}
}
