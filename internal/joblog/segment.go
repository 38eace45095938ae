package joblog

// The segment store: one growing arena of planes, cut into sealed
// immutable segments and a small mutable tail, so the log can grow while
// queries run against a consistent snapshot.
//
// The store holds no Record. It keeps one append-only arena per column
// — a numeric or symbol plane and its missing bits — plus the record
// IDs and one append-only intern table (columns.go). Append writes a
// record's cells into the arena's next row and lets the record go; a
// plane that outgrows its capacity moves to an array twice as large
// (Columns.grow). The first Ingest into an empty store adopts the log's
// planes instead of copying them, so a CSV read by ReadCSVPlanes lands
// in the arena as it was read.
//
// A sealed segment is a row range of the arena that never changes
// again. What it keeps for good is derived from its rows, each part
// built from a snapshot's planes when something first reads it:
//
//   - on first index use, its per-field sorted order, which the store
//     merges into a sorted prefix memoized across watermarks;
//   - on first use of an equality prefilter, the constant's bitmap over
//     the segment's rows;
//   - the first time a snapshot's log is asked for its SegmentViews —
//     that is, the first time a walk ships to shard workers — its wire
//     form and content hash (HashSlice over the records). The shard
//     layer ships segments as hashed LogSlices, so a worker that cached
//     a sealed segment's decoded form never receives its bytes again, no
//     matter how much the log grows. A store that only ever answers
//     locally holds no wire form at all.
//
// A segment holds no plane, so an array the arena has outgrown lives
// only as long as the snapshots that view it.
//
// Snapshot() views the arena at the current watermark (Columns.view):
// the snapshot's planes and IDs are capacity-capped slices of the
// arena's, and only what the store may still write under them — the
// missing bits and the intern table — is copied. Taking one costs
// O(fields) plus those two copies, and the store and all its live
// snapshots share one copy of the planes. A snapshot's sorted index
// merges the segments' orders with its tail's, its equality bitmaps
// blit the segments' and scan the tail, and Domain and NumericRange are
// its own lazy, memoized scans, as on any log. The snapshot's log is
// byte-identical to a fresh Log holding the same records — pinned by
// TestStoreSnapshotEquivalence — so every consumer (the explainer, the
// planners, the baselines) works on snapshots unchanged.
//
// Concurrency: every Store method is safe for concurrent use. Snapshots
// are immutable — the store never writes a row one reads, and each owns
// its missing bits and intern table — and are memoized per generation.

import (
	"fmt"
	"slices"
	"sync"
)

// DefaultSealThreshold is the segment size NewStore uses when the caller
// passes a non-positive threshold. Large enough that per-segment fixed
// costs (hash, wire form, index memos) amortize; small enough that the
// mutable tail — the only part whose slice re-ships on every append —
// stays cheap to ship.
const DefaultSealThreshold = 2048

// Store is a growable job log: an arena of planes cut into sealed
// immutable segments and a mutable tail. It does not keep what it is
// given: a record handed to Append is read once, and a log handed to
// Ingest is copied, or, into an empty store, viewed (see Ingest).
type Store struct {
	mu     sync.Mutex
	schema *Schema
	sealN  int
	// arena holds every row: one growing plane per column, the record
	// IDs, and the append-only intern table. Rows arrive in record order
	// and intern their nominal cells as they land, so symbol IDs are
	// exactly the IDs a whole-log build assigns; snapshots copy the table
	// so readers never observe growth.
	arena *Columns
	// sealed tiles the arena's rows from row 0; the rows after the last
	// segment are the tail. It only ever grows.
	sealed []*segment
	// gen is the watermark: one tick per append (and per forced seal),
	// mirrored into every snapshot taken at that point.
	gen uint64
	// snap memoizes the snapshot of the current watermark; advance drops
	// it, so the store never keeps arrays the arena has outgrown alive.
	snap *Snapshot

	// ixMemo memoizes, per field, the merged sorted permutation of the
	// sealed-segment prefix (see sealedPermFor). Sealing is append-only,
	// so a later watermark's prefix extends an earlier one: the k-way
	// merge resumes from the memo and only folds in newly-sealed
	// segments. Guarded by ixMu, not mu — the merge runs lazily on first
	// SortedIndex use, long after the snapshot was taken and the store
	// lock released.
	ixMu   sync.Mutex
	ixMemo map[int]*sealedPerm
}

// sealedPerm is the memoized merge of the first nSegs sealed segments'
// orders for one field: global rows ordered by (plane value, row), with
// the prefix's presence summary. perm is never mutated after
// publication — extensions allocate a new slice — so a ColIndex may
// alias it across snapshots.
type sealedPerm struct {
	nSegs int
	rowOrder
}

// segment is one sealed, immutable run of the arena's rows. It holds no
// plane: its memo keeps arrays derived from its rows — field f's
// rowOrder under colIndexKey(f), a constant's bitmap over its rows under
// the constant's eqRowsKey — built from the planes of whichever snapshot
// first asks, since a sealed row reads the same in every snapshot.
type segment struct {
	start, n int // global index of the segment's first row, and its rows
	memo
	// view is the segment's shippable form — wire records and their
	// content hash — built by shipView the first time any snapshot's
	// SegmentViews asks for it, then shared by every snapshot.
	viewOnce sync.Once
	view     SegmentView
}

// order returns field f's order over the segment's rows of col, a
// snapshot's column.
func (seg *segment) order(col *Col, f int) rowOrder {
	return seg.Memo(colIndexKey(f), func() any { return sortRows(col, seg.start, seg.start+seg.n) }).(rowOrder)
}

// equalRows returns the bitmap, by segment-local row, of the segment's
// rows whose plane value in col, a snapshot's column, equals the
// resolved key. Symbol IDs mean the same in every snapshot, because the
// store's intern table only grows and every snapshot copies it: a
// constant first seen after the segment sealed has an ID no row of the
// segment holds, and matches nothing.
func (seg *segment) equalRows(col *Col, key eqRowsKey) Bitmap {
	return seg.Memo(key, func() any {
		bm := NewBitmap(seg.n)
		setEqualRows(bm, col, key, seg.start, seg.start+seg.n, seg.start)
		return bm
	}).(Bitmap)
}

// NewStore returns an empty store over the schema. sealThreshold is the
// tail size at which a segment seals; non-positive selects
// DefaultSealThreshold.
func NewStore(schema *Schema, sealThreshold int) *Store {
	if sealThreshold <= 0 {
		sealThreshold = DefaultSealThreshold
	}
	return &Store{schema: schema, sealN: sealThreshold, arena: newColumns(schema, 0, newIntern())}
}

// Schema returns the store's schema.
func (s *Store) Schema() *Schema { return s.schema }

// Len returns the number of records (sealed plus tail).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arena.n
}

// tailStartLocked is the global index of the tail's first row.
func (s *Store) tailStartLocked() int {
	if k := len(s.sealed); k > 0 {
		return s.sealed[k-1].start + s.sealed[k-1].n
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
	row := s.arena.n
	s.arena.grow(row + 1)
	s.arena.setRow(row, r)
	s.advanceLocked(1)
	s.sealFullLocked()
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
// Record being built: rows move plane to plane. Into an empty store
// they do not move at all: the arena becomes a view of l's planes
// (Columns.view), capacity-capped and with its own missing bits and
// intern table, so the store never writes memory l reads — unless l's
// planes have spare capacity, the rows a CSV read reserved and did not
// fill. A store lives long, and the GC counts an array's capacity as live
// heap for as long as anything views it, so those rows are copied once
// into planes of their exact size instead. A log whose
// schema is not the store's (names and kinds, in order) is refused with
// a *SchemaError and nothing is appended.
func (s *Store) Ingest(l *Log) error {
	if err := s.checkSchema(l.Schema); err != nil {
		return err
	}
	src := l.Columns()
	s.mu.Lock()
	defer s.mu.Unlock()
	if at := s.arena.n; at == 0 && !src.spare() {
		s.arena = src.view(src.n)
	} else {
		remap := s.arena.intern.remapFrom(src.intern)
		s.arena.grow(at + src.n)
		s.arena.stitch(at, src, 0, src.n, remap)
	}
	s.advanceLocked(src.n)
	s.sealFullLocked()
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
	if at := s.tailStartLocked(); s.arena.n > at {
		s.sealed = append(s.sealed, &segment{start: at, n: s.arena.n - at})
		s.advanceLocked(1)
	}
}

// advanceLocked ticks the watermark by k.
func (s *Store) advanceLocked(k int) {
	if k > 0 {
		s.gen += uint64(k)
		s.snap = nil
	}
}

// sealFullLocked seals the tail a threshold's worth of rows at a time
// while it holds that many.
func (s *Store) sealFullLocked() {
	for at := s.tailStartLocked(); s.arena.n-at >= s.sealN; at += s.sealN {
		s.sealed = append(s.sealed, &segment{start: at, n: s.sealN})
	}
}

// shipView returns the sealed segment's shippable view, building the
// wire form and hashing it on first use. The rows are read through l, a
// snapshot log holding the segment.
func (seg *segment) shipView(l *Log) SegmentView {
	seg.viewOnce.Do(func() {
		seg.view = newSegmentView(seg.start, l.wire(seg.start, seg.start+seg.n), true)
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

// Log returns the snapshot's plane-backed log: a view of the store's
// arena whose sorted indexes and equality bitmaps come from the
// per-segment precomputations. It reads exactly like a fresh Log over
// the same records.
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
	if s.snap == nil {
		s.snap = s.buildSnapshotLocked()
	}
	return s.snap
}

func (s *Store) buildSnapshotLocked() *Snapshot {
	n, tailStart := s.arena.n, s.tailStartLocked()
	// The sealed list only grows, so a capacity-capped slice of it is
	// immutable for the snapshot's lazy hooks, which run long after the
	// store lock is released.
	segs := slices.Clip(s.sealed)
	c := s.arena.view(n)
	// The sorted-index hook merges per-segment orders instead of
	// re-sorting the whole plane.
	c.buildIndex = func(f int) *ColIndex { return s.mergedIndex(c, segs, tailStart, f) }
	// The equality-bitmap hook blits per-segment bitmaps — memoized on
	// the sealed segments, so they survive appends — and scans only the
	// tail.
	c.buildEqRows = func(key eqRowsKey) Bitmap {
		col := c.Col(key.f)
		out := NewBitmap(n)
		for _, seg := range segs {
			out.BlitFrom(seg.equalRows(col, key), 0, seg.start, seg.n)
		}
		setEqualRows(out, col, key, tailStart, n, 0)
		return out
	}
	sn := &Snapshot{log: &Log{Schema: s.schema, rows: c}, gen: s.gen, sealed: segs, tailStart: tailStart}
	c.buildSegments = sn.segments
	return sn
}

// mergePerms merges two (value, row)-sorted global-row permutations.
// A merge of two non-empty inputs is freshly allocated; otherwise the
// other input is returned as it is. Neither input is ever mutated, so
// memoized inputs may be passed and the result aliased.
func mergePerms(col *Col, a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if planeLess(col, b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sealedPermFor returns the merged order of the snapshot's sealed
// prefix for col, field f of the snapshot, memoized on the store across
// watermarks: because sealing is append-only, a later snapshot's prefix
// extends an earlier one, so the merge resumes from the memo and folds
// in only the newly-sealed segments instead of re-running the k-way
// merge from scratch. Sealed rows read the same in every snapshot, so a
// permutation built against one snapshot's planes is valid for all later
// ones. An old snapshot whose lazy hook fires after the memo has
// advanced past its own prefix rebuilds locally and leaves the memo
// alone. The merge itself runs outside ixMu so concurrent fields (or
// racing snapshots, which at worst duplicate work) never serialize on
// the per-segment sorts.
func (s *Store) sealedPermFor(col *Col, segs []*segment, f int) sealedPerm {
	s.ixMu.Lock()
	var cur sealedPerm
	if m := s.ixMemo[f]; m != nil && m.nSegs <= len(segs) {
		cur = *m
	}
	s.ixMu.Unlock()
	if cur.nSegs == len(segs) {
		return cur
	}
	perms := make([][]int32, 0, len(segs)-cur.nSegs)
	for _, seg := range segs[cur.nSegs:] {
		o := seg.order(col, f)
		cur.nPresent += o.nPresent
		cur.hasNaN = cur.hasNaN || o.hasNaN
		perms = append(perms, o.perm)
	}
	// The new segments merge pairwise, as a balanced tree, and only
	// their union merges into the memo: O(n log k) for k new segments,
	// where folding them in one at a time would copy the growing prefix
	// k times.
	for len(perms) > 1 {
		half := perms[:0]
		for i := 0; i < len(perms); i += 2 {
			if i+1 == len(perms) {
				half = append(half, perms[i])
			} else {
				half = append(half, mergePerms(col, perms[i], perms[i+1]))
			}
		}
		perms = half
	}
	if len(perms) == 1 {
		cur.perm = mergePerms(col, cur.perm, perms[0])
	}
	cur.nSegs = len(segs)
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

// mergedIndex builds field f's ColIndex for a snapshot by merging the
// store-memoized sealed-prefix order (see sealedPermFor) with a freshly
// sorted tail. The result is element-for-element what buildColIndex
// produces on the whole view, because both order by (plane value,
// global row).
func (s *Store) mergedIndex(c *Columns, segs []*segment, tailStart, f int) *ColIndex {
	col := c.Col(f)
	sp := s.sealedPermFor(col, segs, f)
	tail := sortRows(col, tailStart, c.Len())
	return newColIndex(col, rowOrder{
		perm:     mergePerms(col, sp.perm, tail.perm),
		nPresent: sp.nPresent + tail.nPresent,
		hasNaN:   sp.hasNaN || tail.hasNaN,
	})
}
