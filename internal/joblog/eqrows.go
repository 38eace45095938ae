package joblog

// Per-column equality-row bitmaps: the set of rows whose plane value
// equals a constant, as a bitmap — the primitive behind despite-clause
// prefilters (every despite atom is an equality over a base feature).
// A bitmap is one scan of the view's plane, for a store's snapshot as
// for any other log, memoized on the Columns view like every derived
// aggregate.

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
// equals v, memoized on the view. Over planes holding every cell
// exactly this is Value.Equal: missing rows never match and NaN matches
// nothing. The returned bitmap is shared across callers and must not be
// mutated.
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
	return c.Memo(key, func() any { return equalRows(col, key, c.n) }).(Bitmap)
}

// equalRows scans the first n rows of col for the plane value the
// resolved key names.
func equalRows(col *Col, key eqRowsKey, n int) Bitmap {
	out := NewBitmap(n)
	switch {
	case key.none:
	case col.Kind == Numeric:
		x := math.Float64frombits(key.bits)
		for i, v := range col.Num[:n] {
			if v == x && !col.Miss.Get(i) {
				out.SetBit(i)
			}
		}
	default:
		id := uint32(key.bits)
		for i, v := range col.Sym[:n] {
			if v == id && !col.Miss.Get(i) {
				out.SetBit(i)
			}
		}
	}
	return out
}
