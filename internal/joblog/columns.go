package joblog

// This file implements the columnar form of a Log: one dense []float64
// per numeric field, one []uint32 of interned symbol IDs per nominal
// field, a per-field missing bitmap, the record IDs and one per-log
// string intern table. For a log built by Append it is a view, built
// lazily on first use and invalidated exactly like every memo — keyed on
// the log's (generation, record count), so both growth and mutations
// routed through the Log API rebuild it. For everything a binary keeps
// resident — a store's segments and snapshots, a log read by
// ReadCSVPlanes, a worker's decoded slice — it is the log: those hold no
// Record at all (see Log).
//
// The columnar engine (pxql predicate compilation, the features pair
// matrix, dtree split scoring) reads these planes instead of boxed
// Value structs: nominal comparisons become uint32 equality, numeric
// comparisons read a flat float64 slice, and missing checks are one bit.
//
// Planes hold canonical cells exactly: a cell whose kind is the field's
// kind (or Missing) and whose payload sits only in that kind's member.
// Append validates record width and nothing else, so a hand-built log
// may hold other cells — a kind that disagrees with the schema ("alien"),
// a Missing cell with a payload, a numeric carrying a string. Those go,
// boxed, into a sparse side table keyed by (row, field), and Value reads
// it first, so a record read back from planes is the record appended,
// to the bit. Alien cells are also flagged in a per-field bitmap:
// columnar consumers fall back to Value for flagged fields, so the fast
// path assumes nothing it cannot prove.

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"perfxplain/internal/bitset"
)

// Bitmap is a fixed-size bitset addressed by record index — an alias of
// the shared bitset.Set, so the word layout and bit addressing exist in
// exactly one place and the batched predicate kernels can treat missing
// bitmaps and selection bitmaps uniformly.
type Bitmap = bitset.Set

// NewBitmap returns a bitmap with capacity for n bits, all clear.
func NewBitmap(n int) Bitmap { return bitset.Make(n) }

// Intern is a per-log string intern table: nominal values become dense
// uint32 symbol IDs assigned in first-appearance order, so equality of
// nominal values is integer equality and the string payload is stored
// once. IDs stay below 1<<31, keeping room for packed composites (the
// features package packs two IDs into a uint64 diff symbol).
type Intern struct {
	strs []string
	ids  map[string]uint32
}

func newIntern() *Intern {
	return &Intern{ids: make(map[string]uint32)}
}

// intern returns the ID for s, assigning the next one on first sight.
func (in *Intern) intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.strs))
	if id >= 1<<31 {
		panic("joblog: intern table overflow")
	}
	in.strs = append(in.strs, s)
	in.ids[s] = id
	return id
}

// internBytes is intern for a cell still in its read buffer: a symbol
// seen before costs a lookup and no string, a new one gets a string of
// its own, so the table never pins the buffer.
func (in *Intern) internBytes(b []byte) uint32 {
	if id, ok := in.ids[string(b)]; ok {
		return id
	}
	return in.intern(string(b))
}

// Lookup returns the ID of s if it was observed in the log. Constants
// that were never logged have no ID; a compiled equality against them can
// only ever match through the not-equal operator.
func (in *Intern) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Str decodes a symbol ID back to its string.
func (in *Intern) Str(id uint32) string { return in.strs[id] }

// Len returns the number of interned strings.
func (in *Intern) Len() int { return len(in.strs) }

// Strings returns a copy of the intern table's strings in symbol-ID
// order.
func (in *Intern) Strings() []string {
	return append([]string(nil), in.strs...)
}

// remapFrom interns src's strings in src's ID order and returns the
// translation from src's IDs to in's. Both tables number strings by
// first appearance, so walking runs of rows in order and their tables
// in ID order numbers the concatenation by first appearance too —
// exactly the IDs one build over all the rows assigns.
func (in *Intern) remapFrom(src *Intern) []uint32 {
	remap := make([]uint32, len(src.strs))
	for id, s := range src.strs {
		remap[id] = in.intern(s)
	}
	return remap
}

// clone returns an independent table assigning the same IDs.
func (in *Intern) clone() *Intern {
	c := &Intern{strs: in.Strings(), ids: make(map[string]uint32, len(in.ids))}
	for i, s := range c.strs {
		c.ids[s] = uint32(i)
	}
	return c
}

// Col is one field's column: exactly one of Num or Sym is non-nil,
// matching the schema kind, plus the missing bitmap.
type Col struct {
	// Kind is the schema kind of the field.
	Kind Kind
	// Num holds v.Num per record for numeric fields (nil for nominal).
	Num []float64
	// Sym holds the interned v.Str per record for nominal fields (nil for
	// numeric).
	Sym []uint32
	// Miss flags records whose value is missing.
	Miss Bitmap
	// HasAlien is true when any non-missing cell's value kind disagrees
	// with the schema kind; consumers needing exact Value semantics
	// (base-feature equality) must fall back to Columns.Value for this
	// field. The planes are still filled (Num from v.Num, Sym from
	// interned v.Str), which is exactly what the derive comparisons read.
	HasAlien bool
	alien    Bitmap
}

// Alien reports whether record i holds a value whose kind disagrees with
// the schema kind.
func (c *Col) Alien(i int) bool { return c.HasAlien && c.alien.Get(i) }

// cellRef addresses one cell of a view.
type cellRef struct{ row, f int }

// Columns is the columnar form of a Log at a fixed generation and
// record count.
type Columns struct {
	n      int
	gen    uint64
	intern *Intern
	cols   []Col
	// ids holds the record identifiers by row.
	ids []string
	// side holds, boxed, every cell the planes do not reproduce exactly
	// (see canonical). Nil on the logs real collectors and CSV files
	// produce.
	side map[cellRef]Value

	// buildIndex, when set, replaces buildColIndex as the builder behind
	// SortedIndex — the seam the segment store uses to assemble a
	// snapshot's per-column index by merging per-segment sorted indexes
	// instead of re-sorting the whole log (see Snapshot). The built
	// index is still memoized on the view like any other.
	buildIndex func(f int) *ColIndex

	// buildEqRows, when set, replaces the index-seek path behind
	// EqualRowsBitmap — the segment store's seam for stitching a
	// snapshot's equality bitmap from per-segment memoized bitmaps plus
	// a tail scan (see eqrows.go). Called only with resolved keys.
	buildEqRows func(key eqRowsKey) Bitmap

	memoMu sync.Mutex
	memos  map[any]any
}

// newColumns returns a view of n rows over the schema's fields, every
// plane zeroed, interning into in.
func newColumns(schema *Schema, n int, in *Intern) *Columns {
	c := &Columns{intern: in, cols: make([]Col, schema.Len())}
	for f := range c.cols {
		c.cols[f].Kind = schema.Field(f).Kind
	}
	c.grow(n)
	return c
}

// grow extends the view to n rows; the new rows' cells read as numeric
// zero or symbol zero until they are written. Only a view nothing else
// can see yet — one under construction, a store's tail — may grow.
func (c *Columns) grow(n int) {
	add, addWords := n-c.n, bitset.Words(n)-bitset.Words(c.n)
	c.n = n
	c.ids = append(c.ids, make([]string, add)...)
	for f := range c.cols {
		col := &c.cols[f]
		if col.Kind == Numeric {
			col.Num = append(col.Num, make([]float64, add)...)
		} else {
			col.Sym = append(col.Sym, make([]uint32, add)...)
		}
		col.Miss = append(col.Miss, make(Bitmap, addWords)...)
		if col.alien != nil {
			col.alien = append(col.alien, make(Bitmap, addWords)...)
		}
	}
}

// clip drops the spare capacity growth left behind, for a view about to
// be kept for good.
func (c *Columns) clip() {
	c.ids = clipped(c.ids)
	for f := range c.cols {
		col := &c.cols[f]
		col.Num, col.Sym = clipped(col.Num), clipped(col.Sym)
		col.Miss, col.alien = clipped(col.Miss), clipped(col.alien)
	}
}

// clipped returns s, reallocated to its length when more than an eighth
// of its backing array is unused.
func clipped[S ~[]E, E any](s S) S {
	if cap(s)-len(s) <= cap(s)/8 {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// canonical reports whether a plane of the given kind reproduces v
// exactly: v is of that kind or Missing, and carries payload only in
// its kind's member (any bit of Num counts, so -0 and NaN payloads in a
// cell that should have none are kept).
func canonical(kind Kind, v Value) bool {
	switch v.Kind {
	case Missing:
		return v.Str == "" && math.Float64bits(v.Num) == 0
	case kind:
		if kind == Numeric {
			return v.Str == ""
		}
		return math.Float64bits(v.Num) == 0
	}
	return false
}

// setCell writes v as the f'th cell of row — the one place a boxed Value
// becomes plane content. Missing cells set their bit and leave the plane
// zero; every other cell fills the plane from its kind's member (Num,
// or the interned Str) whatever its own kind, which is what the derive
// comparisons read; what the plane cannot give back goes into the side
// table.
func (c *Columns) setCell(row, f int, v Value) {
	col := &c.cols[f]
	if !canonical(col.Kind, v) {
		if c.side == nil {
			c.side = make(map[cellRef]Value)
		}
		c.side[cellRef{row, f}] = v
	}
	if v.Kind == Missing {
		col.Miss.SetBit(row)
		return
	}
	if v.Kind != col.Kind {
		if col.alien == nil {
			col.alien = NewBitmap(c.n)
		}
		col.alien.SetBit(row)
		col.HasAlien = true
	}
	if col.Kind == Numeric {
		col.Num[row] = v.Num
	} else {
		col.Sym[row] = c.intern.intern(v.Str)
	}
}

// setRow writes record r as row. Cells go in field order, so a build
// that writes rows in order interns in row-major first-appearance order.
func (c *Columns) setRow(row int, r *Record) {
	c.ids[row] = r.ID
	for f := range c.cols {
		c.setCell(row, f, r.Values[f])
	}
}

// stitch copies rows [lo, hi) of src into c starting at row at — the one
// routine behind snapshot assembly, bulk ingest, CSV block landing and a
// worker's slice concatenation. remap translates src's symbol IDs into
// c's (Intern.remapFrom); nil when both number symbols from one table.
func (c *Columns) stitch(at int, src *Columns, lo, hi int, remap []uint32) {
	m := hi - lo
	copy(c.ids[at:at+m], src.ids[lo:hi])
	for f := range c.cols {
		dst, from := &c.cols[f], &src.cols[f]
		switch {
		case dst.Kind == Numeric:
			copy(dst.Num[at:at+m], from.Num[lo:hi])
		case remap == nil:
			copy(dst.Sym[at:at+m], from.Sym[lo:hi])
		default:
			for i, id := range from.Sym[lo:hi] {
				// A missing cell's symbol is a zero no table need hold.
				if !from.Miss.Get(lo + i) {
					dst.Sym[at+i] = remap[id]
				}
			}
		}
		dst.Miss.BlitFrom(from.Miss, lo, at, m)
		if from.HasAlien {
			if dst.alien == nil {
				dst.alien = NewBitmap(c.n)
			}
			dst.alien.BlitFrom(from.alien, lo, at, m)
			// src may hold its aliens outside [lo, hi). The window's edge
			// words may hold neighbours' bits; those were counted already.
			dst.HasAlien = dst.HasAlien || dst.alien[at>>6:bitset.Words(at+m)].Any()
		}
	}
	// Each cell lands under its own key, whatever order they are met in.
	//pxql:orderinvariant
	for k, v := range src.side {
		if k.row >= lo && k.row < hi {
			if c.side == nil {
				c.side = make(map[cellRef]Value)
			}
			c.side[cellRef{k.row - lo + at, k.f}] = v
		}
	}
}

// Concat returns the plane-backed log holding the logs' records one
// after another — how a shard worker turns the segment slices of a spec
// into the whole log. Planes are stitched, not rebuilt, and symbols come
// out numbered as one build over all the records would number them.
func Concat(logs []*Log) (*Log, error) {
	if len(logs) == 0 {
		return nil, errors.New("joblog: nothing to concatenate")
	}
	schema, n := logs[0].Schema, 0
	for i, l := range logs {
		if !l.Schema.Equal(schema) {
			return nil, fmt.Errorf("joblog: log %d disagrees with the first on the schema", i)
		}
		n += l.Len()
	}
	c := newColumns(schema, n, newIntern())
	at := 0
	for _, l := range logs {
		src := l.Columns()
		c.stitch(at, src, 0, src.n, c.intern.remapFrom(src.intern))
		at += src.n
	}
	return &Log{Schema: schema, rows: c}, nil
}

// Len returns the number of records the view covers.
func (c *Columns) Len() int { return c.n }

// Col returns the f'th field's column.
func (c *Columns) Col(f int) *Col { return &c.cols[f] }

// Intern returns the view's string intern table.
func (c *Columns) Intern() *Intern { return c.intern }

// ID returns the identifier of the record at row.
func (c *Columns) ID(row int) string { return c.ids[row] }

// Value returns the boxed value of one cell, exactly as it was appended:
// the side table's entry when the cell has one, the plane's otherwise.
// It is the exact-semantics fallback for alien cells and the bridge for
// code that wants a Record.
func (c *Columns) Value(row, f int) Value {
	if c.side != nil {
		if v, ok := c.side[cellRef{row, f}]; ok {
			return v
		}
	}
	col := &c.cols[f]
	switch {
	case col.Miss.Get(row):
		return Value{}
	case col.Kind == Numeric:
		return Value{Kind: Numeric, Num: col.Num[row]}
	default:
		return Value{Kind: col.Kind, Str: c.intern.strs[col.Sym[row]]}
	}
}

// values boxes row's cells into dst, one per field.
func (c *Columns) values(row int, dst []Value) {
	for f := range dst {
		dst[f] = c.Value(row, f)
	}
}

// Record boxes the record at row. The planes are the store; this is for
// the two records a query binds and for output, not for scans.
func (c *Columns) Record(row int) *Record {
	r := &Record{ID: c.ids[row], Values: make([]Value, len(c.cols))}
	c.values(row, r.Values)
	return r
}

// Memo returns the value cached under key, calling build to produce it
// on first use. It is the consumer-side extension point of the columnar
// view's invalidation scheme: a view is immutable and rebuilt when the
// log's generation or record count changes (see Log.Columns), so derived
// aggregates memoized here — e.g. relief's per-attribute statistics —
// are invalidated exactly when the planes themselves are, and die with
// the view. build runs under the memo lock (concurrent callers see one
// build, already-built values are returned without re-entry) and must
// not call Memo itself.
func (c *Columns) Memo(key any, build func() any) any {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if v, ok := c.memos[key]; ok {
		return v
	}
	if c.memos == nil {
		c.memos = make(map[any]any)
	}
	v := build()
	c.memos[key] = v
	return v
}

// memoGet peeks the memo without building — for callers whose build
// work must run outside the memo lock (e.g. equalPlaneRows, whose
// builder re-enters Memo through SortedIndex).
func (c *Columns) memoGet(key any) (any, bool) {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	v, ok := c.memos[key]
	return v, ok
}

// Columns returns the log's columnar form. A plane-backed log returns
// the planes it is made of. A log of records builds a view on first use
// and rebuilds it when the log changed — generation or record count (the
// invalidation rule of every memo); the view is immutable and remains
// valid for its build point even if the log grows afterwards.
func (l *Log) Columns() *Columns {
	if l.rows != nil {
		return l.rows
	}
	l.colsMu.Lock()
	defer l.colsMu.Unlock()
	if l.colsCache != nil && l.colsCache.n == len(l.Records) && l.colsCache.gen == l.gen {
		return l.colsCache
	}
	c := newColumns(l.Schema, len(l.Records), newIntern())
	c.gen = l.gen
	for i, r := range l.Records {
		c.setRow(i, r)
	}
	l.colsCache = c
	return c
}
