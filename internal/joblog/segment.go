package joblog

// The segment store: sealed immutable segments plus a small mutable
// tail, so the log can grow while queries run against a consistent
// snapshot.
//
// Appends land in the tail, a set of growable planes; once the tail
// reaches the seal threshold it becomes a segment that never changes
// again. The store holds no Record: Append writes the record's cells
// into the tail's planes and lets the record go, and a snapshot boxes a
// row back only when asked (Log.Record). A sealed segment keeps
// everything expensive forever, each part built when something first
// reads it:
//
//   - from the moment its rows were appended, its columnar planes and
//     record IDs (columns.go), numbered by the store's shared append-only intern
//     table so symbol IDs across segments are exactly the IDs a whole-log
//     fresh build would assign (rows arrive in record order, so
//     first-appearance order is preserved);
//   - on first index use, its per-field sorted indexes (memoized on the
//     segment's view);
//   - the first time a snapshot's log is asked for its SegmentViews —
//     that is, the first time a walk ships to shard workers — its wire
//     form and content hash (HashSlice over the records). The shard layer
//     ships segments
//     as hashed LogSlices, so a worker that cached a sealed segment's
//     decoded form never receives its bytes again, no matter how much
//     the log grows. A store that only ever answers locally holds no
//     wire form at all.
//
// So the store's resident memory is planes: one set per sealed segment
// (8 bytes a numeric cell, 4 a nominal one, a bit for missing) and one
// assembled set per live snapshot.
//
// Snapshot() assembles the current watermark into a plane-backed *Log
// whose planes are stitched from the segments' instead of rebuilt from
// scratch: planes are memcpy'd at segment offsets, bitmaps are blitted,
// and the column sorted index k-way merges the per-segment
// permutations. Domain and NumericRange are the snapshot log's own
// lazy, memoized scans, as on any log. The assembled log is
// byte-identical to a fresh Log holding the same records — pinned by
// TestStoreSnapshotEquivalence — so every consumer (the explainer, the
// planners, the baselines) works on snapshots unchanged.
//
// Concurrency: every Store method is safe for concurrent use. Snapshots
// are immutable once built (they own a private intern copy, so tail
// growth never races a reader) and are memoized per generation, so
// query-heavy callers pay assembly once per watermark.

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// DefaultSealThreshold is the segment size NewStore uses when the caller
// passes a non-positive threshold. Large enough that per-segment fixed
// costs (hash, wire form, index memos) amortize; small enough that the
// mutable tail — the only part whose slice re-ships on every append —
// stays cheap to ship.
const DefaultSealThreshold = 2048

// Store is a growable job log: sealed immutable segments plus a mutable
// tail. It copies what it is given: a record handed to Append is read
// once and not kept.
type Store struct {
	mu     sync.Mutex
	schema *Schema
	sealN  int
	// in is the shared append-only intern table: rows arrive in record
	// order and intern their nominal cells as they land, so per-segment
	// symbol planes concatenate to exactly what a whole-log build
	// assigns. Snapshots copy it so readers never observe growth.
	in     *Intern
	sealed []*segment
	// tail holds the rows not yet sealed, as planes that grow; sealing
	// hands it to a segment as it is.
	tail *Columns
	// gen is the watermark: one tick per append (and per forced seal),
	// mirrored into every snapshot taken at that point.
	gen uint64

	snap    *Snapshot
	snapGen uint64

	// ixMemo memoizes, per field, the merged sorted permutation of the
	// sealed-segment prefix (see sealedPermFor). Sealing is append-only,
	// so a later watermark's prefix extends an earlier one: the k-way
	// merge that used to rerun for every snapshot now resumes from the
	// memo and only folds in newly-sealed segments. Guarded by ixMu, not
	// mu — the merge runs lazily on first SortedIndex use, long after the
	// snapshot was assembled and the store lock released.
	ixMu   sync.Mutex
	ixMemo map[int]*sealedPerm
}

// sealedPerm is the memoized merge of the first nSegs sealed segments'
// sorted permutations for one field: global rows ordered by (plane
// value, row), with the prefix's presence summary. perm is never
// mutated after publication — extensions allocate a new slice — so a
// ColIndex may alias it across snapshots.
type sealedPerm struct {
	nSegs    int
	perm     []int32
	nPresent int
	hasNaN   bool
}

// segment is one sealed, immutable run of records.
type segment struct {
	start int // global index of the segment's first row
	// cols is the segment: planes and IDs indexed by local row; its
	// intern pointer is the store's shared table. SortedIndex memos
	// accumulate on it and stay warm for the segment's lifetime.
	cols *Columns
	// view is the segment's shippable form — wire records and their
	// content hash — built by shipView the first time any snapshot's
	// SegmentViews asks for it, then shared by every snapshot.
	viewOnce sync.Once
	view     SegmentView
}

// NewStore returns an empty store over the schema. sealThreshold is the
// tail size at which a segment seals; non-positive selects
// DefaultSealThreshold.
func NewStore(schema *Schema, sealThreshold int) *Store {
	if sealThreshold <= 0 {
		sealThreshold = DefaultSealThreshold
	}
	in := newIntern()
	return &Store{schema: schema, sealN: sealThreshold, in: in, tail: newColumns(schema, 0, in)}
}

// Schema returns the store's schema.
func (s *Store) Schema() *Schema { return s.schema }

// Len returns the number of records (sealed plus tail).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lenLocked()
}

func (s *Store) lenLocked() int { return s.tailStartLocked() + s.tail.n }

// tailStartLocked is the global index of the tail's first row.
func (s *Store) tailStartLocked() int {
	if k := len(s.sealed); k > 0 {
		return s.sealed[k-1].start + s.sealed[k-1].cols.n
	}
	return 0
}

// Gen returns the store's watermark: a monotonic counter ticked by every
// append. Snapshot results are reproducible per watermark.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// SealedSegments returns the number of sealed segments.
func (s *Store) SealedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed)
}

// TailLen returns the number of records in the mutable tail.
func (s *Store) TailLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail.n
}

// Append adds a record after validating it against the schema (see
// checkRecord), sealing a new segment when the tail reaches the
// threshold. A refused record leaves the store and its watermark
// unchanged.
func (s *Store) Append(r *Record) error {
	if err := checkRecord(s.schema, r); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.tail.n
	s.tail.grow(row + 1)
	s.tail.setRow(row, r)
	s.gen++
	if s.tail.n >= s.sealN {
		s.sealLocked()
	}
	return nil
}

// SchemaError reports a log offered to a store of a different schema.
type SchemaError struct{ msg string }

func (e *SchemaError) Error() string { return e.msg }

// checkSchema compares field lists by name and kind: planes are
// positional, so a mismatch accepted here would land cells in columns of
// another meaning or another type.
func (s *Store) checkSchema(got *Schema) error {
	if s.schema.Len() != got.Len() {
		return &SchemaError{fmt.Sprintf("schema mismatch: store has %d fields, ingest has %d", s.schema.Len(), got.Len())}
	}
	for i, have := range s.schema.fields {
		if g := got.fields[i]; g != have {
			return &SchemaError{fmt.Sprintf("schema mismatch at field %d: store %s(%s), ingest %s(%s)",
				i, have.Name, have.Kind, g.Name, g.Kind)}
		}
	}
	return nil
}

// Ingest appends every record of l, in log order, as one batch: the
// whole of it lands under a single lock hold, so a concurrent Snapshot
// sees none of it or all of it, and two concurrent batches never
// interleave. Otherwise it is Append once per record — segments seal at
// the same rows and the watermark ticks once per record — without a
// Record being built: rows move plane to plane. A log whose schema is
// not the store's (names and kinds, in order) is refused with a
// *SchemaError and nothing is appended.
func (s *Store) Ingest(l *Log) error {
	if err := s.checkSchema(l.Schema); err != nil {
		return err
	}
	src := l.Columns()
	s.mu.Lock()
	defer s.mu.Unlock()
	remap := s.in.remapFrom(src.intern)
	for lo := 0; lo < src.n; {
		at := s.tail.n
		hi := min(src.n, lo+s.sealN-at)
		s.tail.grow(at + hi - lo)
		s.tail.stitch(at, src, lo, hi, remap)
		s.gen += uint64(hi - lo)
		lo = hi
		if s.tail.n >= s.sealN {
			s.sealLocked()
		}
	}
	return nil
}

// MustAppend is Append for construction code where a refused record is a
// programming error.
func (s *Store) MustAppend(r *Record) {
	if err := s.Append(r); err != nil {
		panic(err)
	}
}

// Seal force-seals the current tail into a segment regardless of the
// threshold (a no-op on an empty tail) — collectors call it at the end
// of a batch so the whole ingest becomes cache-stable.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tail.n == 0 {
		return
	}
	s.sealLocked()
	s.gen++
}

func (s *Store) sealLocked() {
	s.tail.clip()
	s.sealed = append(s.sealed, &segment{start: s.tailStartLocked(), cols: s.tail})
	s.tail = newColumns(s.schema, 0, s.in)
}

// shipView returns the sealed segment's shippable view, building the
// wire form and hashing it on first use. The rows are read through l, a
// snapshot log holding the segment: its intern table is private, where
// the segment's own is the store's and still growing.
func (seg *segment) shipView(l *Log) SegmentView {
	seg.viewOnce.Do(func() {
		seg.view = newSegmentView(seg.start, l.wire(seg.start, seg.start+seg.cols.n), true)
	})
	return seg.view
}

// SegmentView describes one shippable unit of a snapshot: a contiguous
// run of records, its global start index, and its content hash (the
// HashSlice of Records). Sealed views keep their
// hash forever across appends; the tail view's hash changes with every
// append and is the only slice that re-ships.
type SegmentView struct {
	Start   int
	Hash    string
	Records WireLog
	Sealed  bool
}

// Len returns the number of records in the view.
func (v SegmentView) Len() int { return len(v.Records.Records) }

func newSegmentView(start int, wire WireLog, sealed bool) SegmentView {
	return SegmentView{Start: start, Hash: HashSlice(wire), Records: wire, Sealed: sealed}
}

// SegmentViews returns the log's segment decomposition: its shippable
// views in record order, tiling the records contiguously from 0. A store
// snapshot's log returns its store's — every sealed segment, then the
// tail if non-empty. Any other log returns the views a store fed the
// same records at DefaultSealThreshold would expose: contiguous runs of
// that many records, the last one short and unsealed.
//
// The views are built on the first call and memoized on the columnar
// view — once per log generation, a sealed segment's once for all
// snapshots — so a log that is only queried locally never pays for wire
// forms or hashes, and a flat log that only grows by Append keeps the
// hashes of its full runs. Callers must not mutate the result.
func (l *Log) SegmentViews() []SegmentView {
	c := l.Columns()
	c.segsMu.Lock()
	defer c.segsMu.Unlock()
	if c.segs != nil {
		return c.segs
	}
	if c.buildSegments != nil {
		c.segs = c.buildSegments()
		return c.segs
	}
	c.segs = make([]SegmentView, 0, (c.n+DefaultSealThreshold-1)/DefaultSealThreshold)
	for start := 0; start < c.n; start += DefaultSealThreshold {
		end := min(start+DefaultSealThreshold, c.n)
		c.segs = append(c.segs, newSegmentView(start, l.wire(start, end), end-start == DefaultSealThreshold))
	}
	return c.segs
}

// SegmentViewsBuilt reports whether SegmentViews has built the views of
// the log's current generation — the observable behind the promise that
// answering locally, or by rank, wires and hashes nothing.
func (l *Log) SegmentViewsBuilt() bool {
	c := l.Columns()
	c.segsMu.Lock()
	defer c.segsMu.Unlock()
	return c.segs != nil
}

// Snapshot is an immutable view of the store at one watermark.
type Snapshot struct {
	log *Log
	gen uint64
	// sealed and tailStart are the watermark's decomposition: the
	// segments sealed when the snapshot was taken, and where the tail
	// (the rest of the log's rows) begins.
	sealed    []*segment
	tailStart int
}

// Log returns the snapshot's assembled, plane-backed log. Its planes
// and sorted indexes come from the per-segment precomputations; it
// reads exactly like a fresh Log over the same records.
func (sn *Snapshot) Log() *Log { return sn.log }

// segments builds the snapshot's shippable views — its log's
// SegmentViews: every sealed segment (built once for all snapshots),
// then the tail (built for this one) if non-empty.
func (sn *Snapshot) segments() []SegmentView {
	views := make([]SegmentView, 0, len(sn.sealed)+1)
	for _, seg := range sn.sealed {
		views = append(views, seg.shipView(sn.log))
	}
	if n := sn.log.Len(); n > sn.tailStart {
		views = append(views, newSegmentView(sn.tailStart, sn.log.wire(sn.tailStart, n), false))
	}
	return views
}

// Gen returns the watermark the snapshot was taken at.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// Snapshot returns the store's current watermark as an immutable
// queryable view, memoized per generation: repeated calls between
// appends return the same snapshot.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap != nil && s.snapGen == s.gen {
		return s.snap
	}
	s.snap = s.buildSnapshotLocked()
	s.snapGen = s.gen
	return s.snap
}

func (s *Store) buildSnapshotLocked() *Snapshot {
	// An immutable copy of the segment list: the snapshot's lazy hooks
	// run long after the store lock is released, and sealed segments
	// never change.
	segs := append([]*segment(nil), s.sealed...)
	tailStart := s.tailStartLocked()
	c := s.assembleColumnsLocked(segs, tailStart)
	sn := &Snapshot{log: &Log{Schema: s.schema, rows: c}, gen: s.gen, sealed: segs, tailStart: tailStart}
	c.buildSegments = sn.segments
	return sn
}

// assembleColumnsLocked stitches the snapshot's planes: sealed planes
// are memcpy'd at their segment offsets, sealed bitmaps are blitted, and
// the tail's rows follow the same way. The view owns a private copy of
// the shared intern table — exactly the IDs a fresh whole-log build
// assigns, and isolated from future intern growth.
func (s *Store) assembleColumnsLocked(segs []*segment, tailStart int) *Columns {
	n := tailStart + s.tail.n
	c := newColumns(s.schema, n, s.in.clone())
	for _, seg := range segs {
		c.stitch(seg.start, seg.cols, 0, seg.cols.n, nil)
	}
	c.stitch(tailStart, s.tail, 0, s.tail.n, nil)
	// The sorted-index hook merges per-segment permutations instead of
	// re-sorting the whole plane.
	c.buildIndex = func(f int) *ColIndex { return s.mergedIndex(c, segs, tailStart, f) }
	// The equality-bitmap hook blits per-segment bitmaps — memoized on
	// the sealed segments, so they survive appends — and scans only the
	// tail. Symbol IDs are valid across views because the shared intern
	// is append-only and every view copies it: a constant first seen in a
	// later tail gets an ID beyond every sealed plane's range and simply
	// matches nothing there.
	c.buildEqRows = func(key eqRowsKey) Bitmap {
		out := NewBitmap(n)
		for _, seg := range segs {
			out.BlitFrom(seg.cols.equalPlaneRows(key), 0, seg.start, seg.cols.n)
		}
		col := c.Col(key.f)
		if col.Kind == Numeric {
			x := math.Float64frombits(key.bits)
			for i := tailStart; i < n; i++ {
				if !col.Miss.Get(i) && col.Num[i] == x {
					out.SetBit(i)
				}
			}
		} else {
			id := uint32(key.bits)
			for i := tailStart; i < n; i++ {
				if !col.Miss.Get(i) && col.Sym[i] == id {
					out.SetBit(i)
				}
			}
		}
		return out
	}
	return c
}

// planeLess orders two global rows of a view by (plane value, row) —
// exactly buildColIndex's sort order.
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

// mergePerms merges two (value, row)-sorted global-row permutations,
// adding bOff to b's entries. The result is freshly allocated (nil when
// both inputs are empty) so memoized inputs are never mutated.
func mergePerms(col *Col, a, b []int32, bOff int32) []int32 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if rb := b[j] + bOff; planeLess(col, rb, a[i]) {
			out = append(out, rb)
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = append(out, b[j]+bOff)
	}
	return out
}

// sealedPermFor returns the merged sorted permutation of the snapshot's
// sealed prefix, memoized on the store across watermarks: because
// sealing is append-only, a later snapshot's prefix extends an earlier
// one, so the merge resumes from the memo and folds in only the
// newly-sealed segments instead of re-running the k-way merge from
// scratch. Sealed rows are bit-identical in every assembled view, so a
// permutation built against one snapshot's planes is valid for all
// later ones. An old snapshot whose lazy hook fires after the memo has
// advanced past its own prefix rebuilds locally and leaves the memo
// alone. The merge itself runs outside ixMu so concurrent fields (or
// racing snapshots, which at worst duplicate work) never serialize on
// the per-segment index builds.
func (s *Store) sealedPermFor(c *Columns, segs []*segment, f int) sealedPerm {
	col := c.Col(f)
	s.ixMu.Lock()
	var cur sealedPerm
	if memo := s.ixMemo[f]; memo != nil && memo.nSegs <= len(segs) {
		cur = *memo
	}
	s.ixMu.Unlock()
	if cur.nSegs == len(segs) {
		return cur
	}
	for _, seg := range segs[cur.nSegs:] {
		// The segment's own sorted index is memoized on the sealed segment
		// and survives for the segment's lifetime.
		six := seg.cols.SortedIndex(f)
		cur.nPresent += six.NPresent
		cur.hasNaN = cur.hasNaN || six.HasNaN
		cur.perm = mergePerms(col, cur.perm, six.Perm, int32(seg.start))
		cur.nSegs++
	}
	s.ixMu.Lock()
	if old := s.ixMemo[f]; old == nil || old.nSegs < cur.nSegs {
		if s.ixMemo == nil {
			s.ixMemo = make(map[int]*sealedPerm)
		}
		stored := cur
		s.ixMemo[f] = &stored
	}
	s.ixMu.Unlock()
	return cur
}

// mergedIndex builds field f's ColIndex for an assembled view by
// two-way merging the store-memoized sealed-prefix permutation (see
// sealedPermFor) with a freshly-sorted tail part. The result is
// element-for-element what buildColIndex produces on the whole view,
// because both order by (plane value, global row).
func (s *Store) mergedIndex(c *Columns, segs []*segment, tailStart, f int) *ColIndex {
	col := c.Col(f)
	ix := &ColIndex{Min: math.NaN(), Max: math.NaN(), col: col}
	sp := s.sealedPermFor(c, segs, f)
	ix.NPresent = sp.nPresent
	ix.HasNaN = sp.hasNaN
	var tailPerm []int32
	for i := tailStart; i < c.Len(); i++ {
		if col.Miss.Get(i) {
			continue
		}
		ix.NPresent++
		if col.Kind == Numeric && math.IsNaN(col.Num[i]) {
			ix.HasNaN = true
			continue
		}
		tailPerm = append(tailPerm, int32(i))
	}
	sort.Slice(tailPerm, func(a, b int) bool { return planeLess(col, tailPerm[a], tailPerm[b]) })
	switch {
	case len(tailPerm) == 0:
		// Alias the memoized prefix (read-only by contract); nil when the
		// column has no indexable rows, exactly as buildColIndex's
		// append-never-called path leaves it.
		ix.Perm = sp.perm
	case len(sp.perm) == 0:
		ix.Perm = tailPerm
	default:
		ix.Perm = mergePerms(col, sp.perm, tailPerm, 0)
	}
	if col.Kind == Numeric && len(ix.Perm) > 0 {
		ix.Min = col.Num[ix.Perm[0]]
		ix.Max = col.Num[ix.Perm[len(ix.Perm)-1]]
	}
	return ix
}
