package joblog

// This file adds the per-column sorted index of the columnar view: a
// permutation of the present rows ordered by plane value, plus zone
// statistics (min/max/presence). Consumers seek — equality prefilters
// binary-search to their candidate row range, zone-map pruning compares
// an atom's lowered value range against [Min, Max] — instead of scanning
// the plane. Like every derived aggregate it is memoized on the Columns
// view (the index dies with the view when the log's generation or count
// changes), and it is a pure function of the plane contents, so building
// it never perturbs anything the shard planners compare for purity.
//
// The index is over the *planes*, aliens included (their Num/Sym cells
// are filled from the boxed value just like the derive kernels read
// them). Consumers needing exact boxed-Value semantics must check
// Col.HasAlien and fall back, exactly as for the planes themselves.

import (
	"math"
	"sort"
)

// ColIndex is one column's sorted permutation and zone map.
type ColIndex struct {
	// Perm holds the present rows sorted ascending by plane value and
	// then by row, so an equality or range seek yields its candidate rows
	// in ascending record order (ready to intersect or emit in walk
	// order). Numeric columns exclude NaN cells from Perm; they are
	// still counted in NPresent and flagged by HasNaN.
	Perm []int32
	// Min and Max bound the present non-NaN values of a numeric column.
	// They are NaN when no such value exists, and for nominal columns.
	Min, Max float64
	// NPresent counts the column's present rows (NaN cells included).
	NPresent int
	// HasNaN reports a present NaN cell in a numeric column — zone
	// pruning must not treat [Min, Max] as covering those rows.
	HasNaN bool

	col *Col
}

// colIndexKey memoizes one ColIndex per field on the Columns view.
type colIndexKey int

// SortedIndex returns the f'th column's sorted index, building it on
// first use and caching it on the view (see Columns.Memo for the
// invalidation contract). Views assembled by the segment store install a
// buildIndex hook that merges per-segment sorted indexes instead of
// re-sorting the whole log; the hook must produce exactly what
// buildColIndex would.
func (c *Columns) SortedIndex(f int) *ColIndex {
	v := c.Memo(colIndexKey(f), func() any {
		if c.buildIndex != nil {
			return c.buildIndex(f)
		}
		return buildColIndex(c, f)
	})
	return v.(*ColIndex)
}

func buildColIndex(c *Columns, f int) *ColIndex {
	col := c.Col(f)
	ix := &ColIndex{Min: math.NaN(), Max: math.NaN(), col: col}
	for i := 0; i < c.Len(); i++ {
		if col.Miss.Get(i) {
			continue
		}
		ix.NPresent++
		if col.Kind == Numeric && math.IsNaN(col.Num[i]) {
			ix.HasNaN = true
			continue
		}
		ix.Perm = append(ix.Perm, int32(i))
	}
	if col.Kind == Numeric {
		sort.Slice(ix.Perm, func(a, b int) bool {
			va, vb := col.Num[ix.Perm[a]], col.Num[ix.Perm[b]]
			if va != vb {
				return va < vb
			}
			return ix.Perm[a] < ix.Perm[b]
		})
		if len(ix.Perm) > 0 {
			ix.Min = col.Num[ix.Perm[0]]
			ix.Max = col.Num[ix.Perm[len(ix.Perm)-1]]
		}
	} else {
		sort.Slice(ix.Perm, func(a, b int) bool {
			va, vb := col.Sym[ix.Perm[a]], col.Sym[ix.Perm[b]]
			if va != vb {
				return va < vb
			}
			return ix.Perm[a] < ix.Perm[b]
		})
	}
	return ix
}

// SeekGE returns the first position in Perm whose numeric value is >= x.
func (ix *ColIndex) SeekGE(x float64) int {
	return sort.Search(len(ix.Perm), func(k int) bool {
		return ix.col.Num[ix.Perm[k]] >= x
	})
}

// SeekGT returns the first position in Perm whose numeric value is > x.
func (ix *ColIndex) SeekGT(x float64) int {
	return sort.Search(len(ix.Perm), func(k int) bool {
		return ix.col.Num[ix.Perm[k]] > x
	})
}

// EqualNum returns the rows whose numeric plane value equals x, in
// ascending row order. NaN matches nothing (x != x).
func (ix *ColIndex) EqualNum(x float64) []int32 {
	if math.IsNaN(x) {
		return nil
	}
	return ix.Perm[ix.SeekGE(x):ix.SeekGT(x)]
}

// RangeBetween returns the Perm sub-slice of rows whose numeric value
// lies in the interval [lo, hi], each bound excluded when its open flag
// is set — the seek form of a pxql.ValueRange. An inverted or NaN
// interval matches nothing; infinite bounds behave naturally (the seek
// lands at an end of Perm). The result is sorted by (value, row), NOT
// globally row-ascending: callers intersect it with a group's row set
// (e.g. as a bitmap) rather than merging by position.
func (ix *ColIndex) RangeBetween(lo, hi float64, loOpen, hiOpen bool) []int32 {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return nil
	}
	a := ix.SeekGE(lo)
	if loOpen {
		a = ix.SeekGT(lo)
	}
	b := ix.SeekGT(hi)
	if hiOpen {
		b = ix.SeekGE(hi)
	}
	if b < a {
		return nil
	}
	return ix.Perm[a:b]
}

// EqualSym returns the rows whose symbol plane value equals id, in
// ascending row order.
func (ix *ColIndex) EqualSym(id uint32) []int32 {
	lo := sort.Search(len(ix.Perm), func(k int) bool {
		return ix.col.Sym[ix.Perm[k]] >= id
	})
	hi := sort.Search(len(ix.Perm), func(k int) bool {
		return ix.col.Sym[ix.Perm[k]] > id
	})
	return ix.Perm[lo:hi]
}
