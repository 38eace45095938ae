package joblog

// This file implements the columnar form of a Log: one dense []float64
// per numeric field, one []uint32 of interned symbol IDs per nominal
// field, a per-field missing bitmap, the record IDs and one per-log
// string intern table. For a log built by Append it is a view, built
// lazily on first use and invalidated exactly like every memo — keyed on
// the log's (generation, record count), so both growth and mutations
// routed through the Log API rebuild it. For everything a binary keeps
// resident — a store's arena and snapshots, a log read by
// ReadCSVPlanes, a worker's decoded slice — it is the log: those hold no
// Record at all (see Log).
//
// A store's arena is a Columns that grows (grow, stitch, setRow), and
// its snapshots are views of it (view): capacity-capped slices of the
// arena's planes and IDs beside their own copies of the missing bits and
// the intern table. So one set of planes serves the store and every
// snapshot taken of it, and a plane is never written where a view can
// read it.
//
// The columnar engine (pxql predicate compilation, the features pair
// matrix, dtree split scoring) reads these planes instead of boxed
// Value structs: nominal comparisons become uint32 equality, numeric
// comparisons read a flat float64 slice, and missing checks are one bit.
//
// Planes hold every cell exactly. A cell is canonical for its field when
// its kind is the field's kind (or Missing) and its payload sits only in
// that kind's member; every door a record enters a log by (Log.Append,
// Store.Append, WireLog.Log, the typed CSV and JSON readers) admits
// canonical cells only, so a record read back from planes is the record
// appended, to the bit, and no columnar consumer needs a boxed fallback.

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
}

// Columns is the columnar form of a Log at a fixed generation and
// record count.
type Columns struct {
	n      int
	gen    uint64
	intern *Intern
	cols   []Col
	// ids holds the record identifiers by row.
	ids []string

	// buildIndex, when set, replaces buildColIndex as the builder behind
	// SortedIndex — the seam the segment store uses to build a
	// snapshot's per-column index by merging per-segment orders instead
	// of re-sorting the whole log (see Snapshot). The built
	// index is still memoized on the view like any other.
	buildIndex func(f int) *ColIndex

	// buildEqRows, when set, replaces the index-seek path behind
	// EqualRowsBitmap — the segment store's seam for blitting a
	// snapshot's equality bitmap from per-segment memoized bitmaps plus
	// a tail scan (see eqrows.go). Called only with resolved keys.
	buildEqRows func(key eqRowsKey) Bitmap

	// buildSegments, when set, replaces the fixed-size runs behind
	// SegmentViews — the segment store's seam for handing a snapshot's
	// sealed segments (whose views outlive the snapshot) and its tail to
	// the shard runner.
	buildSegments func() []SegmentView
	// segs memoizes SegmentViews; non-nil once built (an empty view's
	// decomposition is empty, not nil). Guarded by segsMu rather than the
	// memo lock, so a runner wiring and hashing the log never stalls the
	// index and deriver memos of questions answered locally meanwhile.
	segsMu sync.Mutex
	segs   []SegmentView

	memo
}

// memo caches values derived from immutable data, one per comparable
// key: the aggregates of a Columns view, the per-segment arrays of a
// store's sealed segment.
type memo struct {
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
// zero or symbol zero until they are written. Only rows nothing else can
// see may be written — a view under construction, or a store's arena
// past every snapshot's rows. A plane that outgrows its capacity moves to
// an array twice as large, so rows appended one at a time are copied
// O(1) times each; the old array lives on only in the views taken of it.
func (c *Columns) grow(n int) {
	c.ids = extend(c.ids, n)
	for f := range c.cols {
		col := &c.cols[f]
		if col.Kind == Numeric {
			col.Num = extend(col.Num, n)
		} else {
			col.Sym = extend(col.Sym, n)
		}
		col.Miss = extend(col.Miss, bitset.Words(n))
	}
	c.n = n
}

// extend returns s lengthened to n elements, the new ones zero: in place
// while n fits its capacity, else in a new array of twice the capacity
// (exactly n for a slice that had none).
func extend[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	grown := make(S, n, max(n, 2*cap(s)))
	copy(grown, s)
	return grown
}

// view returns c's first n rows as a view of their own. Planes and IDs
// are capacity-capped slices of c's arrays: c may go on growing, in place
// past row n or into new arrays, and never writes a cell the view reads.
// The missing bits and the intern table are copied, since those are what
// c still writes under the view — the unused bits of the last word, and
// new symbols.
func (c *Columns) view(n int) *Columns {
	v := &Columns{n: n, intern: c.intern.clone(), cols: make([]Col, len(c.cols)), ids: c.ids[:n:n]}
	for f := range c.cols {
		col := &c.cols[f]
		v.cols[f] = Col{Kind: col.Kind, Miss: slices.Clone(col.Miss[:bitset.Words(n)])}
		if col.Kind == Numeric {
			v.cols[f].Num = col.Num[:n:n]
		} else {
			v.cols[f].Sym = col.Sym[:n:n]
		}
	}
	return v
}

// spare reports whether c's planes or IDs have capacity past its rows —
// what a CSV read reserved and did not fill (ReadCSVPlanes).
func (c *Columns) spare() bool {
	if cap(c.ids) > c.n {
		return true
	}
	for f := range c.cols {
		if cap(c.cols[f].Num) > c.n || cap(c.cols[f].Sym) > c.n {
			return true
		}
	}
	return false
}

// canonical reports whether a plane of the given kind reproduces v
// exactly: v is of that kind or Missing, and carries payload only in
// its kind's member (any bit of Num counts, so -0 and NaN payloads in a
// cell that should have none are refused).
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

// setCell writes v, canonical for its field, as the f'th cell of row —
// the one place a boxed Value becomes plane content. Missing cells set
// their bit and leave the plane zero; every other cell fills the plane
// from its kind's member.
func (c *Columns) setCell(row, f int, v Value) {
	col := &c.cols[f]
	switch {
	case v.Kind == Missing:
		col.Miss.SetBit(row)
	case col.Kind == Numeric:
		col.Num[row] = v.Num
	default:
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
// routine behind a store's ingest and a worker's slice concatenation (a
// CSV read lands its blocks in place instead: Columns.land). remap
// translates src's symbol IDs into c's (Intern.remapFrom).
func (c *Columns) stitch(at int, src *Columns, lo, hi int, remap []uint32) {
	m := hi - lo
	copy(c.ids[at:at+m], src.ids[lo:hi])
	for f := range c.cols {
		dst, from := &c.cols[f], &src.cols[f]
		if dst.Kind == Numeric {
			copy(dst.Num[at:at+m], from.Num[lo:hi])
		} else {
			for i, id := range from.Sym[lo:hi] {
				// A missing cell's symbol is a zero no table need hold.
				if !from.Miss.Get(lo + i) {
					dst.Sym[at+i] = remap[id]
				}
			}
		}
		dst.Miss.BlitFrom(from.Miss, lo, at, m)
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

// Value returns the boxed value of one cell, exactly as it was appended
// — the bridge for code that wants a Record.
func (c *Columns) Value(row, f int) Value {
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
func (m *memo) Memo(key any, build func() any) any {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if v, ok := m.memos[key]; ok {
		return v
	}
	if m.memos == nil {
		m.memos = make(map[any]any)
	}
	v := build()
	m.memos[key] = v
	return v
}

// memoGet peeks the memo without building — for callers whose build
// work must run outside the memo lock (e.g. equalPlaneRows, whose
// builder re-enters Memo through SortedIndex).
func (m *memo) memoGet(key any) (any, bool) {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	v, ok := m.memos[key]
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
		// Append checked every record, but harness code may grow Records
		// by hand: a cell the planes would change is a programming error.
		if err := checkRecord(l.Schema, r); err != nil {
			panic(err)
		}
		c.setRow(i, r)
	}
	l.colsCache = c
	return c
}
