package joblog

// This file adds the per-column sorted index of the columnar view: a
// permutation of the present rows ordered by plane value, plus zone
// statistics (min/max/presence). Consumers seek — the walk's row seek
// binary-searches to its candidate row range, numeric blocking reads its
// SIM chains off the order — instead of scanning the plane. Like every
// derived aggregate it is memoized on the Columns view (the index dies
// with the view when the log's generation or count changes), and it is a
// pure function of the plane contents, so building it never perturbs
// anything the shard planners compare for purity.
//
// The index is over the planes, which hold every cell exactly (see
// columns.go), so a seek over it answers with boxed-Value semantics.
//
// Index order is (plane value, row). It is built without a comparison:
// each present non-NaN cell gets an order-preserving uint64 key — a
// number's IEEE bits with -0 folded to +0 first (the two compare equal,
// so they tie and fall back to row order), the sign bit set on a positive
// number and every bit flipped on a negative one; a symbol's ID — and a
// stable LSD radix sort, one byte a pass, orders the rows, which enter in
// ascending row order, so equal keys keep it. A pass over a byte every key
// shares is skipped. A store's snapshot sorts only the rows past the
// store's memoized prefix order the same way (segment.go) and merges
// the two by planeLess, which is the same order.

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
	// HasNaN reports a present NaN cell in a numeric column: [Min, Max]
	// does not cover those rows.
	HasNaN bool

	col *Col
}

// colIndexKey memoizes one ColIndex per field on the Columns view.
type colIndexKey int

// SortedIndex returns the f'th column's sorted index, building it on
// first use and caching it on the view (see Columns.Memo for the
// invalidation contract). A store's snapshots install a buildIndex hook
// that extends the store's prefix order instead of re-sorting the whole
// log; the hook must produce exactly what buildColIndex would.
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
	return newColIndex(col, sortRows(col, 0, c.Len()))
}

// newColIndex is the index over col whose order is o, with its zone map.
func newColIndex(col *Col, o rowOrder) *ColIndex {
	ix := &ColIndex{Perm: o.perm, Min: math.NaN(), Max: math.NaN(), NPresent: o.nPresent, HasNaN: o.hasNaN, col: col}
	if col.Kind == Numeric && len(ix.Perm) > 0 {
		ix.Min = col.Num[ix.Perm[0]]
		ix.Max = col.Num[ix.Perm[len(ix.Perm)-1]]
	}
	return ix
}

// rowOrder is a run of rows in index order: perm holds the present rows
// ordered by (plane value, row) — NaN cells excluded, but counted in
// nPresent and flagged by hasNaN. perm is nil when it holds no row.
type rowOrder struct {
	perm     []int32
	nPresent int
	hasNaN   bool
}

// planeLess is index order: it orders two rows of col by (plane value,
// row).
func planeLess(col *Col, a, b int32) bool {
	if col.Kind == Numeric {
		if va, vb := col.Num[a], col.Num[b]; va != vb {
			return va < vb
		}
	} else {
		if va, vb := col.Sym[a], col.Sym[b]; va != vb {
			return va < vb
		}
	}
	return a < b
}

// sortRows orders rows [lo, hi) of col; perm holds global row numbers.
// It is a stable LSD radix sort of the present rows, taken in ascending
// row order, on OrderKey: equal keys keep row order, so the result is
// (value, row) order — planeLess's — without a comparison.
func sortRows(col *Col, lo, hi int) rowOrder {
	var o rowOrder
	keys := make([]uint64, 0, hi-lo)
	rows := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if col.Miss.Get(i) {
			continue
		}
		o.nPresent++
		var k uint64
		if col.Kind == Numeric {
			x := col.Num[i]
			if x != x {
				o.hasNaN = true
				continue
			}
			k = OrderKey(x)
		} else {
			k = uint64(col.Sym[i])
		}
		keys = append(keys, k)
		rows = append(rows, int32(i))
	}
	if len(rows) > 0 {
		o.perm = RadixSort(keys, rows)
	}
	return o
}

// OrderKey maps a non-NaN float to a uint64 whose unsigned order is the
// float's: -0 is folded to +0 first (the two compare equal, so they must
// tie and fall back to row order), then a negative number has every bit
// flipped and a positive one its sign bit set.
func OrderKey(x float64) uint64 {
	if x == 0 {
		x = 0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// RadixSort sorts rows by keys, stably, one byte of the key per pass
// from the least significant up, and returns the sorted rows. A pass in
// which every key has the same byte moves nothing and is skipped — all
// eight bytes' counts come from one read of the keys — so a symbol
// column sorts in at most four passes and a column of small integers in
// two or three. keys and rows, which must not be empty, are overwritten.
func RadixSort(keys []uint64, rows []int32) []int32 {
	n := len(keys)
	var count [8][256]int32
	for _, k := range keys {
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	keys2, rows2 := make([]uint64, n), make([]int32, n)
	for d := range count {
		c := &count[d]
		if c[byte(keys[0]>>(8*d))] == int32(n) {
			continue
		}
		var at int32
		for b, m := range c {
			c[b] = at
			at += m
		}
		shift := 8 * uint(d)
		for i, k := range keys {
			j := c[byte(k>>shift)]
			c[byte(k>>shift)] = j + 1
			keys2[j], rows2[j] = k, rows[i]
		}
		keys, keys2 = keys2, keys
		rows, rows2 = rows2, rows
	}
	return rows
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
