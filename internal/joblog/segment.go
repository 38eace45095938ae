package joblog

// The segment store: one growing arena of planes, cut into sealed
// immutable segments and a small mutable tail, so the log can grow while
// queries run against a consistent snapshot.
//
// The store holds no Record. It keeps one append-only arena per column
// — a numeric or symbol plane and its missing bits — plus the record
// IDs and one append-only intern table (columns.go). Append writes a
// record's cells into the arena's next row and lets the record go, and
// Ingest copies a log's planes into the arena's next rows; a plane that
// outgrows its capacity moves to an array twice as large (Columns.grow).
//
// A sealed segment is a row range of the arena that never changes
// again. The only thing it keeps is its shippable form: the first time
// a snapshot's log is asked for its SegmentViews — that is, the first
// time a walk ships to shard workers — its wire form and content hash
// (HashSlice over the records). The shard layer ships segments as
// hashed LogSlices, so a worker holding a sealed segment from its last
// frame never receives its bytes again. A store that only ever answers
// locally holds no wire form at all, and a segment holds no plane, so an
// array the arena has outgrown lives only as long as the snapshots that
// view it.
//
// Indexes do not follow segments but rows: an arena row never changes
// once appended, so a sorted order over the store's first m rows is an
// order over the first m rows of every later snapshot. The store keeps
// one such prefix order per field (prefixOrder); a snapshot of n >= m
// rows sorts only rows [m, n), merges once and advances the memo.
//
// Snapshot() views the arena at the current watermark (Columns.view):
// the snapshot's planes and IDs are capacity-capped slices of the
// arena's, and only what the store may still write under them — the
// missing bits and the intern table — is copied. Taking one costs
// O(fields) plus those two copies, and the store and all its live
// snapshots share one copy of the planes. Equality bitmaps, Domain and
// NumericRange are the snapshot's own lazy, memoized scans, as on any
// log. The snapshot's log is byte-identical to a fresh Log holding the
// same records — pinned by TestStoreSnapshotEquivalence — so every
// consumer (the explainer, the planners, the baselines) works on
// snapshots unchanged.
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
// passes a non-positive threshold. Large enough that a segment's fixed
// costs (its hash and a reference to it in every frame) amortize; small
// enough that the mutable tail — the only part whose slice re-ships on
// every append — stays cheap to ship. Indexes and bitmaps do not depend
// on it.
const DefaultSealThreshold = 2048

// Store is a growable job log: an arena of planes cut into sealed
// immutable segments and a mutable tail. It does not keep what it is
// given: a record handed to Append is read once, and a log handed to
// Ingest is copied.
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

	// ixMemo holds, per field, the sorted order of the arena's first
	// rows (see prefixIndex). Guarded by ixMu, not mu — an index is built
	// lazily on first SortedIndex use, long after the snapshot was taken
	// and the store lock released.
	ixMu   sync.Mutex
	ixMemo map[int]*prefixOrder
}

// prefixOrder is one field's order over the arena's first n rows: those
// rows ordered by (plane value, row), with their presence summary. perm
// is never mutated after publication — advancing allocates a new slice
// — so a ColIndex may alias it across snapshots.
type prefixOrder struct {
	n int
	rowOrder
}

// segment is one sealed, immutable run of the arena's rows. It holds no
// plane and nothing derived from its rows but its shippable form.
type segment struct {
	start, n int // global index of the segment's first row, and its rows
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
// Record being built: rows move plane to plane, so the store never
// shares memory with l. Into an empty store the planes come out of
// exactly l's length, whatever capacity l's planes have: a store lives
// long, and the GC counts an array's capacity as live heap. A log whose
// schema is not the store's (names and kinds, in order) is refused with
// a *SchemaError and nothing is appended.
func (s *Store) Ingest(l *Log) error {
	if err := s.checkSchema(l.Schema); err != nil {
		return err
	}
	src := l.Columns()
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.arena.n
	remap := s.arena.intern.remapFrom(src.intern)
	s.arena.grow(at + src.n)
	s.arena.stitch(at, src, 0, src.n, remap)
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
// arena whose sorted indexes extend the store's prefix orders. It reads
// exactly like a fresh Log over the same records.
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
	c.buildIndex = func(f int) *ColIndex { return newColIndex(c.Col(f), s.prefixIndex(c, f)) }
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

// prefixIndex returns field f's order over the n rows of c, a
// snapshot's view. When the store's memo covers m <= n rows, it sorts
// only rows [m, n), merges them into the memo's order and advances the
// memo to n; with no memo it sorts all n rows and makes that the memo.
// A snapshot older than the memo sorts its own rows and leaves the memo
// alone, so the memo's row count never shrinks. The sort and merge run
// outside ixMu, so fields never serialize on each other; racing
// snapshots at worst duplicate work.
func (s *Store) prefixIndex(c *Columns, f int) rowOrder {
	col, n := c.Col(f), c.Len()
	s.ixMu.Lock()
	cur := s.ixMemo[f]
	s.ixMu.Unlock()
	if cur != nil && cur.n == n {
		return cur.rowOrder
	}
	if cur != nil && cur.n > n {
		return sortRows(col, 0, n)
	}
	next := &prefixOrder{n: n}
	if cur == nil {
		next.rowOrder = sortRows(col, 0, n)
	} else {
		tail := sortRows(col, cur.n, n)
		next.rowOrder = rowOrder{
			perm:     mergePerms(col, cur.perm, tail.perm),
			nPresent: cur.nPresent + tail.nPresent,
			hasNaN:   cur.hasNaN || tail.hasNaN,
		}
	}
	s.ixMu.Lock()
	if old := s.ixMemo[f]; old == nil || old.n < n {
		if s.ixMemo == nil {
			s.ixMemo = make(map[int]*prefixOrder)
		}
		s.ixMemo[f] = next
	}
	s.ixMu.Unlock()
	return next.rowOrder
}
