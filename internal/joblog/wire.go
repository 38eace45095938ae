package joblog

// Wire form of log slices for the shard protocol: a WireLog carries a
// schema and records in a shape whose fields are all exported (Schema's
// internals are not), so a shard spec can gob- or JSON-encode the slice
// of the execution log its pairs touch and a worker process can rebuild
// an equivalent Log on the other side of the pipe.
//
// Decoding validates everything NewSchema and Append would panic on or
// assume — duplicate and empty field names, unknown kinds, record width
// mismatches, out-of-range value kinds — and returns errors instead, so
// corrupt frames from a broken (or fuzzed) peer can never panic a
// worker. Round-tripping a well-formed log is lossless.

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
func (l *Log) Wire() WireLog {
	return WireSlice(l.Schema, l.Records)
}

// WireSlice builds the wire form of a subset of records under a schema —
// the shape shard specs ship: only the records a shard's pairs touch.
func WireSlice(schema *Schema, records []*Record) WireLog {
	w := WireLog{Fields: schema.Fields()}
	w.Records = make([]WireRecord, len(records))
	for i, r := range records {
		wr := WireRecord{ID: r.ID, Values: make([]WireValue, len(r.Values))}
		for j, v := range r.Values {
			wr.Values[j] = WireValue{Kind: v.Kind.String(), Num: v.Num, Str: v.Str}
		}
		w.Records[i] = wr
	}
	return w
}

// Log rebuilds a Log from the wire form, validating schema and records.
func (w WireLog) Log() (*Log, error) {
	if err := checkFieldNames(w.Fields); err != nil {
		return nil, err
	}
	for _, f := range w.Fields {
		if f.Kind != Numeric && f.Kind != Nominal {
			return nil, fmt.Errorf("joblog: wire field %q has invalid kind %v", f.Name, f.Kind)
		}
	}
	l := NewLog(NewSchema(w.Fields))
	for _, wr := range w.Records {
		if len(wr.Values) != len(w.Fields) {
			return nil, fmt.Errorf("joblog: wire record %q has %d values, schema has %d fields",
				wr.ID, len(wr.Values), len(w.Fields))
		}
		rec := &Record{ID: wr.ID, Values: make([]Value, len(wr.Values))}
		for j, wv := range wr.Values {
			switch wv.Kind {
			case Missing.String():
				rec.Values[j] = None()
			case Numeric.String():
				rec.Values[j] = Num(wv.Num)
			case Nominal.String():
				rec.Values[j] = Str(wv.Str)
			default:
				return nil, fmt.Errorf("joblog: wire record %q value %d has unknown kind %q",
					wr.ID, j, wv.Kind)
			}
		}
		if err := l.Append(rec); err != nil {
			return nil, err
		}
	}
	return l, nil
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
