package joblog

// Wire form of log slices for the shard protocol: a WireLog carries a
// schema and records in a shape whose fields are all exported (Schema's
// internals are not), so a shard spec can gob- or JSON-encode the slice
// of the execution log its pairs touch and a worker process can rebuild
// an equivalent Log on the other side of the pipe.
//
// Decoding validates everything NewSchema and Append would panic on or
// refuse — duplicate and empty field names, unknown kinds, record width
// mismatches, out-of-range value kinds, cells not canonical for their
// field — and returns errors instead, so corrupt frames from a broken (or
// fuzzed) peer can never panic a worker or be silently changed.
// Round-tripping a well-formed log is lossless.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

//pxql:wirehash 75dae2182cce85dc v=2

// WireValue is the wire form of one Value; Kind uses the same names as
// Kind.String so frames stay readable and version-stable.
//
//pxql:wire decode=WireLog.Log
type WireValue struct {
	Kind string  `json:"kind"`
	Num  float64 `json:"num,omitempty"`
	Str  string  `json:"str,omitempty"`
}

// WireRecord is the wire form of one Record.
//
//pxql:wire decode=WireLog.Log
type WireRecord struct {
	ID     string      `json:"id"`
	Values []WireValue `json:"values"`
}

// WireLog is the wire form of a Log (or a slice of one).
//
//pxql:wire decode=Log
type WireLog struct {
	Fields  []Field      `json:"fields"`
	Records []WireRecord `json:"records"`
}

// Wire converts the log to its wire form.
func (l *Log) Wire() WireLog { return l.wire(0, l.Len()) }

// wire is the wire form of records [lo, hi) — the shape shard specs
// ship, a segment at a time.
func (l *Log) wire(lo, hi int) WireLog {
	w := WireLog{Fields: l.Schema.Fields(), Records: make([]WireRecord, hi-lo)}
	rowBuf := make([]Value, l.Schema.Len())
	for i := lo; i < hi; i++ {
		w.Records[i-lo] = wireRecord(l.row(i, rowBuf))
	}
	return w
}

// WireSlice builds the wire form of a list of records under a schema.
func WireSlice(schema *Schema, records []*Record) WireLog {
	w := WireLog{Fields: schema.Fields(), Records: make([]WireRecord, len(records))}
	for i, r := range records {
		w.Records[i] = wireRecord(r.ID, r.Values)
	}
	return w
}

func wireRecord(id string, vals []Value) WireRecord {
	wr := WireRecord{ID: id, Values: make([]WireValue, len(vals))}
	for j, v := range vals {
		wr.Values[j] = WireValue{Kind: v.Kind.String(), Num: v.Num, Str: v.Str}
	}
	return wr
}

// Log rebuilds a plane-backed Log from the wire form, validating schema
// and records.
func (w WireLog) Log() (*Log, error) {
	if err := checkFieldNames(w.Fields); err != nil {
		return nil, err
	}
	for _, f := range w.Fields {
		if f.Kind != Numeric && f.Kind != Nominal {
			return nil, fmt.Errorf("joblog: wire field %q has invalid kind %v", f.Name, f.Kind)
		}
	}
	schema := NewSchema(w.Fields)
	c := newColumns(schema, len(w.Records), newIntern())
	for i, wr := range w.Records {
		if len(wr.Values) != len(w.Fields) {
			return nil, fmt.Errorf("joblog: wire record %q has %d values, schema has %d fields",
				wr.ID, len(wr.Values), len(w.Fields))
		}
		c.ids[i] = wr.ID
		for j, wv := range wr.Values {
			v := Value{Num: wv.Num, Str: wv.Str}
			switch wv.Kind {
			case Missing.String():
			case Numeric.String():
				v.Kind = Numeric
			case Nominal.String():
				v.Kind = Nominal
			default:
				return nil, fmt.Errorf("joblog: wire record %q value %d has unknown kind %q",
					wr.ID, j, wv.Kind)
			}
			if field := schema.Field(j); !canonical(field.Kind, v) {
				return nil, nonCanonical(wr.ID, field, v)
			}
			c.setCell(i, j, v)
		}
	}
	return &Log{Schema: schema, rows: c}, nil
}

// HashSlice returns the content address of a wire log slice: the hex
// SHA-256 of a canonical byte encoding (every variable-length part is
// length-prefixed, so distinct slices can never alias). Shard workers
// key their decoded-columns cache on this hash, which is why it must be
// a pure function of the shipped content and nothing else — not the
// process, not the pointer identity, not the encoding library's
// framing.
func HashSlice(w WireLog) string {
	h := sha256.New()
	// One buffer carries the encoding to the hash a record at a time:
	// a Write per length prefix and per string cost more than the
	// compression function they fed.
	buf := make([]byte, 0, 4096)
	putUint := func(n uint64) { buf = binary.LittleEndian.AppendUint64(buf, n) }
	putStr := func(s string) {
		putUint(uint64(len(s)))
		buf = append(buf, s...)
	}
	putUint(uint64(len(w.Fields)))
	for _, f := range w.Fields {
		putStr(f.Name)
		putUint(uint64(f.Kind))
	}
	putUint(uint64(len(w.Records)))
	for _, r := range w.Records {
		putStr(r.ID)
		putUint(uint64(len(r.Values)))
		for _, v := range r.Values {
			putStr(v.Kind)
			putUint(math.Float64bits(v.Num))
			putStr(v.Str)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
