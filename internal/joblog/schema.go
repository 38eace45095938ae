package joblog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Field is one raw feature of a job or task: its name and value kind.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered set of fields. Records are positional against their
// schema; the index map gives O(1) name lookup. Schemas are immutable once
// built.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from fields. Duplicate or empty names are
// programming errors and panic.
func NewSchema(fields []Field) *Schema {
	s := &Schema{
		fields: append([]Field(nil), fields...),
		index:  make(map[string]int, len(fields)),
	}
	for i, f := range s.fields {
		if f.Name == "" {
			panic("joblog: empty field name")
		}
		if _, dup := s.index[f.Name]; dup {
			panic(fmt.Sprintf("joblog: duplicate field %q", f.Name))
		}
		s.index[f.Name] = i
	}
	return s
}

// checkFieldNames reports as an error what NewSchema panics on. Every
// decoder of outside input (CSV, JSON, wire) calls it before NewSchema.
func checkFieldNames(fields []Field) error {
	seen := make(map[string]bool, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return fmt.Errorf("joblog: field %d has an empty name", i)
		}
		if seen[f.Name] {
			return fmt.Errorf("joblog: duplicate field %q", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i'th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// Index returns the position of the named field and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named field, panicking if absent.
// Use only where the field's presence is an invariant.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("joblog: no field %q", name))
	}
	return i
}

// Equal reports whether two schemas have identical field lists.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i, f := range s.fields {
		if o.fields[i] != f {
			return false
		}
	}
	return true
}

// Record is one logged execution: an identifier plus one value per schema
// field. Records do not carry their schema; a Log binds them together.
type Record struct {
	ID     string
	Values []Value
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	return &Record{ID: r.ID, Values: append([]Value(nil), r.Values...)}
}

// Log is a schema plus the records conforming to it. This is the
// Job(JobID, feature1..k, duration) / Task(TaskID, JobID, feature1..l,
// duration) relation of the paper: the duration target and any foreign
// keys (jobid for tasks) are ordinary fields so that derived pair features
// can be computed over them uniformly.
//
// A log comes in two forms. Built by Append (collectors, the evaluation
// harness, ReadCSV, ReadJSON) it is a list of boxed Records — the
// construction form, mutable, with the columnar view as a memo beside it.
// Everything a binary keeps resident — a store's snapshot, a log read by
// ReadCSVPlanes, a slice a shard worker decoded — is plane-backed:
// Records is nil, the Columns are the only representation, the log is
// immutable, and Record boxes a row on demand. Len, ID, Record, Find,
// Filter, Domain, NumericRange, Columns, Wire, SegmentViews, WriteCSV and
// WriteJSON answer identically on both forms.
type Log struct {
	Schema *Schema
	// Records is the construction form's row store; nil on a plane-backed
	// log. Code that may meet either form reads rows through Len, ID and
	// Record instead.
	Records []*Record

	// rows, when set, is the whole log (see above).
	rows *Columns

	// gen is a monotonic generation counter bumped by every mutation the
	// log knows about: Append, SetRecord, Truncate and the explicit
	// Invalidate escape hatch. Every memo below keys on (gen, record
	// count) rather than the count alone — count-keying served stale
	// planes after a truncate-then-append back to the same length or an
	// in-place record edit. The count stays part of the key because
	// harness code grows Records directly without calling Append; growth
	// still invalidates through the length half of the key.
	gen uint64

	// statsMu guards statsCache. The cache memoizes the whole-column scans
	// behind Domain and NumericRange so repeat callers (today: RuleOfThumb's
	// RReliefF statistics via relief.computeStats; any query path that
	// inspects field domains) pay one scan per field instead of one per
	// call. It is the log's own, not a Columns.Memo entry: its callers
	// include Memo builders, and Memo does not re-enter.
	statsMu    sync.Mutex
	statsCache *logStats

	// colsMu guards colsCache, the lazily built columnar view of a log of
	// records (see columns.go).
	colsMu    sync.Mutex
	colsCache *Columns

	// idMu guards idCache, the memoized ID→index map behind Find, keyed
	// like the other memos; the first occurrence wins so duplicate IDs
	// resolve exactly like a linear scan.
	idMu       sync.Mutex
	idCache    map[string]int
	idCacheN   int
	idCacheGen uint64
}

// logStats holds memoized per-field scan results, valid for a specific
// (generation, record count).
type logStats struct {
	n       int    // Len() the cache was built against
	gen     uint64 // l.gen the cache was built against
	domains map[string][]string
	ranges  map[string]numericRange
}

type numericRange struct {
	min, max float64
	ok       bool
}

// stats returns the memo for the log's current (generation, record
// count), resetting it when records were added, edited, or truncated.
// Callers hold statsMu.
func (l *Log) stats() *logStats {
	if n := l.Len(); l.statsCache == nil || l.statsCache.n != n || l.statsCache.gen != l.gen {
		l.statsCache = &logStats{
			n:       n,
			gen:     l.gen,
			domains: make(map[string][]string),
			ranges:  make(map[string]numericRange),
		}
	}
	return l.statsCache
}

// NewLog returns an empty log over the schema.
func NewLog(schema *Schema) *Log {
	return &Log{Schema: schema}
}

// errPlaneBacked is what every mutator answers on a plane-backed log.
var errPlaneBacked = errors.New("joblog: a plane-backed log is immutable")

// checkWidth is the validation every way of adding a record shares.
func checkWidth(schema *Schema, r *Record) error {
	if len(r.Values) != schema.Len() {
		return fmt.Errorf("joblog: record %q has %d values, schema has %d fields",
			r.ID, len(r.Values), schema.Len())
	}
	return nil
}

// Append adds a record after validating its width against the schema.
func (l *Log) Append(r *Record) error {
	if l.rows != nil {
		return errPlaneBacked
	}
	if err := checkWidth(l.Schema, r); err != nil {
		return err
	}
	l.Records = append(l.Records, r)
	l.gen++
	return nil
}

// MustAppend is Append for construction code where a width mismatch is a
// programming error.
func (l *Log) MustAppend(r *Record) {
	if err := l.Append(r); err != nil {
		panic(err)
	}
}

// SetRecord replaces the i'th record after validating its width. Unlike
// growth, an in-place edit cannot be detected through the record count,
// so it must go through here (or Invalidate) for the memoized views to
// notice.
func (l *Log) SetRecord(i int, r *Record) error {
	if l.rows != nil {
		return errPlaneBacked
	}
	if i < 0 || i >= len(l.Records) {
		return fmt.Errorf("joblog: set record %d of %d", i, len(l.Records))
	}
	if err := checkWidth(l.Schema, r); err != nil {
		return err
	}
	l.Records[i] = r
	l.gen++
	return nil
}

// Truncate drops every record at index n and beyond. A later Append back
// to the old length is a different log and invalidates every memo — the
// generation counter, not the count, carries that fact.
func (l *Log) Truncate(n int) error {
	if l.rows != nil {
		return errPlaneBacked
	}
	if n < 0 || n > len(l.Records) {
		return fmt.Errorf("joblog: truncate to %d of %d", n, len(l.Records))
	}
	l.Records = l.Records[:n]
	l.gen++
	return nil
}

// Invalidate bumps the generation counter without changing the record
// list — the escape hatch for callers that mutated a Record's Values in
// place and need the columnar view, stats and ID memos rebuilt.
func (l *Log) Invalidate() { l.gen++ }

// Len returns the number of records.
func (l *Log) Len() int {
	if l.rows != nil {
		return l.rows.n
	}
	return len(l.Records)
}

// ID returns the identifier of the i'th record.
func (l *Log) ID(i int) string {
	if l.rows != nil {
		return l.rows.ids[i]
	}
	return l.Records[i].ID
}

// Record returns the i'th record. On a plane-backed log it is boxed from
// the planes on every call (Columns.Record): bind the few rows a query
// names, read scans from Columns.
func (l *Log) Record(i int) *Record {
	if l.rows != nil {
		return l.rows.Record(i)
	}
	return l.Records[i]
}

// row returns the i'th record's ID and values for reading: a record's
// own slice, or the plane-backed log's cells boxed into buf (one value
// per field), which the next call overwrites.
func (l *Log) row(i int, buf []Value) (string, []Value) {
	if l.rows == nil {
		return l.Records[i].ID, l.Records[i].Values
	}
	l.rows.values(i, buf)
	return l.rows.ids[i], buf
}

// Value returns the named field of record r, or a missing value if the
// field does not exist.
func (l *Log) Value(r *Record, name string) Value {
	i, ok := l.Schema.Index(name)
	if !ok {
		return None()
	}
	return r.Values[i]
}

// Find returns the record with the given ID, or nil. The lookup is a
// memoized ID→index map, so the per-query callers (explanation binding,
// both baselines, the evaluation harness) pay O(1) per call instead of
// a scan per lookup.
func (l *Log) Find(id string) *Record {
	i, ok := l.FindIndex(id)
	if !ok {
		return nil
	}
	return l.Record(i)
}

// FindIndex returns the index of the record with the given ID, backed by
// the same memoized map as Find; of records sharing an ID the first
// wins. ok is false when the ID is absent.
func (l *Log) FindIndex(id string) (int, bool) {
	l.idMu.Lock()
	defer l.idMu.Unlock()
	if n := l.Len(); l.idCache == nil || l.idCacheN != n || l.idCacheGen != l.gen {
		idx := make(map[string]int, n)
		for i := 0; i < n; i++ {
			id := l.ID(i)
			if _, dup := idx[id]; !dup {
				idx[id] = i
			}
		}
		l.idCache = idx
		l.idCacheN = n
		l.idCacheGen = l.gen
	}
	i, ok := l.idCache[id]
	return i, ok
}

// Filter returns a new log of records (sharing the schema) with the
// records for which keep returns true.
func (l *Log) Filter(keep func(*Record) bool) *Log {
	out := NewLog(l.Schema)
	for i, n := 0, l.Len(); i < n; i++ {
		if r := l.Record(i); keep(r) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Domain returns the sorted distinct non-missing nominal values observed
// for the named field. For numeric fields it returns nil. The scan reads
// the field's plane and is memoized until the log changes; callers must
// not mutate the returned slice.
func (l *Log) Domain(name string) []string {
	f, ok := l.Schema.Index(name)
	if !ok || l.Schema.Field(f).Kind != Nominal {
		return nil
	}
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	st := l.stats()
	if out, hit := st.domains[name]; hit {
		return out
	}
	c := l.Columns()
	col := c.Col(f)
	seen := make([]bool, c.intern.Len())
	for i, id := range col.Sym {
		if !col.Miss.Get(i) && !col.Alien(i) {
			seen[id] = true
		}
	}
	out := []string{}
	for id, ok := range seen {
		if ok {
			out = append(out, c.intern.strs[id])
		}
	}
	sort.Strings(out)
	st.domains[name] = out
	return out
}

// NumericRange returns the observed min and max of a numeric field,
// ignoring missing values. ok is false if the field is absent, nominal,
// or entirely missing. Like Domain, the scan is memoized until the log
// changes.
func (l *Log) NumericRange(name string) (min, max float64, ok bool) {
	f, found := l.Schema.Index(name)
	if !found || l.Schema.Field(f).Kind != Numeric {
		return 0, 0, false
	}
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	st := l.stats()
	if r, hit := st.ranges[name]; hit {
		return r.min, r.max, r.ok
	}
	col := l.Columns().Col(f)
	var r numericRange
	for i, x := range col.Num {
		if col.Miss.Get(i) || col.Alien(i) {
			continue
		}
		if !r.ok {
			r = numericRange{min: x, max: x, ok: true}
			continue
		}
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	st.ranges[name] = r
	return r.min, r.max, r.ok
}
