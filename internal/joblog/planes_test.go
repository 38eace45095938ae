package joblog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"go/types"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"perfxplain/internal/analysis/driver"
)

// Planes are the only resident form of a store's rows, so everything a
// Record could say has to survive the trip through them: these tests
// hold a plane-backed log to the records it was built from, bit for bit.

func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str && math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

func sameRecord(a, b *Record) bool {
	if a.ID != b.ID || len(a.Values) != len(b.Values) {
		return false
	}
	for f := range a.Values {
		if !sameValue(a.Values[f], b.Values[f]) {
			return false
		}
	}
	return true
}

// assertColumnsIdentical holds two views to each other plane for plane:
// the same rows, IDs, symbol numbering, missing and alien bits, numeric
// bit patterns and side-table cells.
func assertColumnsIdentical(t *testing.T, want, got *Columns) {
	t.Helper()
	if want.n != got.n || len(want.cols) != len(got.cols) {
		t.Fatalf("view is %d rows x %d fields, want %d x %d", got.n, len(got.cols), want.n, len(want.cols))
	}
	if !reflect.DeepEqual(want.intern.Strings(), got.intern.Strings()) {
		t.Fatalf("intern order %q, want %q", got.intern.Strings(), want.intern.Strings())
	}
	if !reflect.DeepEqual(want.ids, got.ids) {
		t.Fatalf("ids %q, want %q", got.ids, want.ids)
	}
	for f := range want.cols {
		w, g := &want.cols[f], &got.cols[f]
		if w.Kind != g.Kind || w.HasAlien != g.HasAlien {
			t.Fatalf("field %d: kind %v alien %v, want %v %v", f, g.Kind, g.HasAlien, w.Kind, w.HasAlien)
		}
		if len(w.Num) != len(g.Num) || !reflect.DeepEqual(w.Sym, g.Sym) || !reflect.DeepEqual(w.Miss, g.Miss) {
			t.Fatalf("field %d: planes differ:\n sym %v miss %v\nwant %v %v", f, g.Sym, g.Miss, w.Sym, w.Miss)
		}
		for i := range w.Num {
			if math.Float64bits(w.Num[i]) != math.Float64bits(g.Num[i]) {
				t.Fatalf("field %d row %d: %x, want %x", f, i, math.Float64bits(g.Num[i]), math.Float64bits(w.Num[i]))
			}
		}
		for i := 0; i < want.n; i++ {
			if w.Alien(i) != g.Alien(i) {
				t.Fatalf("field %d row %d: alien %v, want %v", f, i, g.Alien(i), w.Alien(i))
			}
		}
	}
	if len(want.side) != len(got.side) {
		t.Fatalf("side table holds %d cells, want %d", len(got.side), len(want.side))
	}
	for k, w := range want.side {
		if g, ok := got.side[k]; !ok || !sameValue(w, g) {
			t.Fatalf("side cell %v is %#v (%v), want %#v", k, g, ok, w)
		}
	}
}

// roundTripSchema has one field of each kind twice over, so cells of a
// kind meet a plane of their own kind and of the other.
func roundTripSchema() *Schema {
	return NewSchema([]Field{
		{Name: "n1", Kind: Numeric},
		{Name: "s1", Kind: Nominal},
		{Name: "n2", Kind: Numeric},
		{Name: "s2", Kind: Nominal},
	})
}

// checkSealedRoundTrip appends recs to stores of several seal
// thresholds and requires of every snapshot that Record(i) is the
// appended record to the bit, that Find resolves an ID to its first
// holder, and that the wire form and content hashes read from planes are
// the ones computed from the records themselves.
func checkSealedRoundTrip(t *testing.T, schema *Schema, recs []*Record) {
	t.Helper()
	first := map[string]int{}
	for i, r := range recs {
		if _, dup := first[r.ID]; !dup {
			first[r.ID] = i
		}
	}
	for _, sealEvery := range []int{1, 3, len(recs) + 1} {
		st := NewStore(schema, sealEvery)
		for i, r := range recs {
			before := r.Clone()
			st.MustAppend(r)
			if !sameRecord(before, r) {
				t.Fatalf("seal=%d: Append changed record %d", sealEvery, i)
			}
		}
		for _, force := range []bool{false, true} {
			if force {
				st.Seal()
			}
			snap := st.Snapshot()
			log := snap.Log()
			if log.Records != nil || log.Len() != len(recs) {
				t.Fatalf("seal=%d: snapshot log has Records %v and %d rows, want none and %d", sealEvery, log.Records != nil, log.Len(), len(recs))
			}
			for i, want := range recs {
				if got := log.Record(i); !sameRecord(got, want) || log.ID(i) != want.ID {
					t.Fatalf("seal=%d force=%v: record %d reads %#v, appended %#v", sealEvery, force, i, got, want)
				}
				if at, ok := log.FindIndex(want.ID); !ok || at != first[want.ID] {
					t.Fatalf("seal=%d: FindIndex(%q) = %d, %v; its first holder is %d", sealEvery, want.ID, at, ok, first[want.ID])
				}
			}
			if got, want := HashSlice(log.Wire()), HashSlice(WireSlice(schema, recs)); got != want {
				t.Fatalf("seal=%d force=%v: log hashes %.12s from planes, %.12s from records", sealEvery, force, got, want)
			}
			off := 0
			for _, v := range snap.Segments() {
				if want := HashSlice(WireSlice(schema, recs[off:off+v.Len()])); v.Hash != want {
					t.Fatalf("seal=%d force=%v: segment at %d hashes %.12s, its records %.12s", sealEvery, force, off, v.Hash, want)
				}
				off += v.Len()
			}
			if off != len(recs) {
				t.Fatalf("seal=%d: segments cover %d of %d records", sealEvery, off, len(recs))
			}
		}
	}
}

// awkwardValues are the cells a plane alone would lose: alien kinds
// (including one no constant names), Missing with a payload, a numeric
// carrying a string, a nominal carrying a number, NaN payload bits, and
// both zeros.
func awkwardValues() []Value {
	nan := math.Float64frombits(0x7ff8dead0000beef)
	snan := math.Float64frombits(0x7ff0000000000001)
	negZero := math.Copysign(0, -1)
	return []Value{
		{}, Num(0), Num(negZero), Num(nan), Num(snan), Num(math.Inf(-1)), Num(1.5),
		Str(""), Str("a"), Str("b"),
		{Kind: Missing, Num: negZero}, {Kind: Missing, Num: 3}, {Kind: Missing, Str: "ghost"},
		{Kind: Numeric, Num: 2, Str: "tagged"}, {Kind: Numeric, Num: nan, Str: "a"},
		{Kind: Nominal, Str: "a", Num: negZero}, {Kind: Nominal, Str: "b", Num: nan},
		{Kind: Kind(7), Num: 4, Str: "seven"}, {Kind: Kind(-1)},
	}
}

func TestSealedRecordRoundTrip(t *testing.T) {
	schema := roundTripSchema()
	pool := awkwardValues()
	// Every awkward value in every column.
	var recs []*Record
	for i, v := range pool {
		for f := 0; f < schema.Len(); f++ {
			vals := []Value{Num(1), Str("x"), None(), None()}
			vals[f] = v
			recs = append(recs, &Record{ID: fmt.Sprintf("v%d-f%d", i, f), Values: vals})
		}
	}
	checkSealedRoundTrip(t, schema, recs)

	// Random rows over the pool, with empty and duplicate IDs.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		recs = recs[:0]
		for i, n := 0, rng.Intn(12); i < n; i++ {
			r := &Record{ID: []string{"", "dup", fmt.Sprint("r", i)}[rng.Intn(3)], Values: make([]Value, schema.Len())}
			for f := range r.Values {
				r.Values[f] = pool[rng.Intn(len(pool))]
			}
			recs = append(recs, r)
		}
		checkSealedRoundTrip(t, schema, recs)
	}
}

// fuzzRecords decodes arbitrary bytes into records over roundTripSchema:
// per record an ID of up to three bytes, per cell a kind byte (two spare
// values reach unnamed kinds), eight bytes of float and a short string.
func fuzzRecords(data []byte) []*Record {
	next := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	var recs []*Record
	for len(data) > 0 && len(recs) < 64 {
		head := next(1)[0]
		r := &Record{ID: string(next(int(head % 4))), Values: make([]Value, 4)}
		for f := range r.Values {
			b := next(2)
			if len(b) < 2 {
				break
			}
			v := Value{Kind: Kind(int(b[0]%5) - 1)}
			if b[1]&1 != 0 {
				var bits [8]byte
				copy(bits[:], next(8))
				v.Num = math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
			}
			if b[1]&2 != 0 {
				v.Str = string(next(int(b[1] >> 6)))
			}
			r.Values[f] = v
		}
		recs = append(recs, r)
	}
	return recs
}

func FuzzSealedRecordRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 'i', 'd', 1, 0, 2, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 0x80, 'x', 'y', 4, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 2, 0x42, 'z'})
	f.Add(bytes.Repeat([]byte{1, 'k', 2, 0xc2, 'a', 'b', 'c', 1, 3, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 2, 3, 1}, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSealedRoundTrip(t, roundTripSchema(), fuzzRecords(data))
	})
}

func TestPlaneBackedLogIsImmutable(t *testing.T) {
	st := NewStore(roundTripSchema(), 2)
	rec := &Record{ID: "a", Values: []Value{Num(1), Str("x"), None(), None()}}
	st.MustAppend(rec)
	log := st.Snapshot().Log()
	if err := log.Append(rec); !errors.Is(err, errPlaneBacked) {
		t.Errorf("Append on a snapshot log: %v", err)
	}
	if log.Len() != 1 || !sameRecord(log.Record(0), rec) {
		t.Error("a refused mutation changed the log")
	}
	// Filter hands back the construction form.
	if kept := log.Filter(func(r *Record) bool { return r.ID == "a" }); len(kept.Records) != 1 || !sameRecord(kept.Records[0], rec) {
		t.Errorf("Filter kept %v", kept.Records)
	}
}

// TestStoreIngestEqualsAppends: a batch ingested whole — from a log of
// records and from a plane-backed one, into an empty store and behind a
// part-filled tail — leaves exactly the store record-at-a-time appends
// leave: the same watermark, the same segment boundaries and hashes, the
// same planes.
func TestStoreIngestEqualsAppends(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(61)
	for _, sealEvery := range []int{1, 4, 7, 64} {
		for _, head := range []int{0, 3, 7, 30} {
			byAppend, byRecords, byPlanes := NewStore(schema, sealEvery), NewStore(schema, sealEvery), NewStore(schema, sealEvery)
			batch, staging := NewLog(schema), NewStore(schema, 5)
			for i, r := range recs {
				byAppend.MustAppend(r)
				if i < head {
					byRecords.MustAppend(r)
					byPlanes.MustAppend(r)
				} else {
					batch.MustAppend(r)
					staging.MustAppend(r)
				}
			}
			planes := staging.Snapshot().Log()
			if err := byRecords.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			if err := byPlanes.Ingest(planes); err != nil {
				t.Fatal(err)
			}
			want := byAppend.Snapshot()
			for name, st := range map[string]*Store{"records": byRecords, "planes": byPlanes} {
				got := st.Snapshot()
				if got.Gen() != want.Gen() || st.SealedSegments() != byAppend.SealedSegments() || st.TailLen() != byAppend.TailLen() {
					t.Fatalf("seal=%d head=%d %s: watermark %d, %d sealed, tail %d; appends leave %d, %d, %d", sealEvery, head, name,
						got.Gen(), st.SealedSegments(), st.TailLen(), want.Gen(), byAppend.SealedSegments(), byAppend.TailLen())
				}
				assertColumnsIdentical(t, want.Log().Columns(), got.Log().Columns())
				gv, wv := got.Segments(), want.Segments()
				for i := range wv {
					if gv[i].Start != wv[i].Start || gv[i].Hash != wv[i].Hash || gv[i].Sealed != wv[i].Sealed {
						t.Fatalf("seal=%d head=%d %s: segment %d is {%d %.12s %v}, appends leave {%d %.12s %v}", sealEvery, head, name, i,
							gv[i].Start, gv[i].Hash, gv[i].Sealed, wv[i].Start, wv[i].Hash, wv[i].Sealed)
					}
				}
			}
		}
	}
}

func TestStoreIngestChecksSchema(t *testing.T) {
	st := NewStore(segTestSchema(), 4)
	st.MustAppend(segTestRecords(1)[0])
	gen := st.Gen()
	fields := segTestSchema().Fields()
	renamed := append([]Field(nil), fields...)
	renamed[1].Name = "y"
	rekinded := append([]Field(nil), fields...)
	rekinded[1].Kind = Nominal
	for name, c := range map[string]struct {
		fields []Field
		want   string
	}{
		"renamed":  {renamed, "schema mismatch at field 1: store x(numeric), ingest y(numeric)"},
		"rekinded": {rekinded, "schema mismatch at field 1: store x(numeric), ingest x(nominal)"},
		"narrower": {fields[:2], "schema mismatch: store has 5 fields, ingest has 2"},
	} {
		l := NewLog(NewSchema(c.fields))
		l.MustAppend(&Record{ID: "r", Values: make([]Value, len(c.fields))})
		var se *SchemaError
		if err := st.Ingest(l); !errors.As(err, &se) || err.Error() != c.want {
			t.Errorf("%s: Ingest error %v, want %s", name, err, c.want)
		}
	}
	if st.Len() != 1 || st.Gen() != gen {
		t.Errorf("refused batches left %d records at watermark %d, want 1 at %d", st.Len(), st.Gen(), gen)
	}
}

// TestStoreIngestIsAtomic: while batches are ingested from several
// goroutines, every snapshot holds whole batches only, each batch's rows
// side by side, and the watermark equals the rows held.
func TestStoreIngestIsAtomic(t *testing.T) {
	schema := NewSchema([]Field{{Name: "batch", Kind: Nominal}, {Name: "row", Kind: Numeric}})
	const writers, batches, rows = 4, 12, 9
	st := NewStore(schema, 16)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				l := NewLog(schema)
				for r := 0; r < rows; r++ {
					l.MustAppend(&Record{ID: fmt.Sprintf("w%d-b%d-r%d", w, b, r), Values: []Value{Str(fmt.Sprintf("w%d-b%d", w, b)), Num(float64(r))}})
				}
				if err := st.Ingest(l); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	check := func() int {
		snap := st.Snapshot()
		cols := snap.Log().Columns()
		if cols.Len()%rows != 0 || snap.Gen() != uint64(cols.Len()) {
			t.Fatalf("snapshot holds %d rows at watermark %d: not whole batches of %d", cols.Len(), snap.Gen(), rows)
		}
		for i := 0; i < cols.Len(); i++ {
			if cols.Col(0).Sym[i] != cols.Col(0).Sym[i-i%rows] || cols.Col(1).Num[i] != float64(i%rows) {
				t.Fatalf("row %d is %s of batch %s: batches interleaved", i, snap.Log().ID(i), cols.Value(i-i%rows, 0).Str)
			}
		}
		return cols.Len()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			check()
		}
	}
	if n := check(); n != writers*batches*rows {
		t.Fatalf("store holds %d rows, want %d", n, writers*batches*rows)
	}
}

// TestEngineReadsNoRecords keeps the row store out of the engine for
// good: Log.Records exists for code that builds logs, and no non-test
// file of the packages that answer queries — or perfxplain.go, their
// public face — may select it on a Log. What they need of a row they get
// from Len, ID, Record and Columns, which a plane-backed log answers too.
func TestEngineReadsNoRecords(t *testing.T) {
	loaded, err := driver.Load("../..", []string{".", "./internal/core", "./internal/features", "./internal/pxql",
		"./internal/shard", "./internal/serve", "./internal/baselines", "./internal/relief"})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, u := range loaded.Units {
		if !loaded.Targets[u.Path] {
			continue
		}
		checked++
		for sel, s := range u.Info.Selections {
			if sel.Sel.Name != "Records" || s.Kind() != types.FieldVal {
				continue
			}
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg().Path() == "perfxplain/internal/joblog" && named.Obj().Name() == "Log" {
				t.Errorf("%s selects Records on a joblog.Log; read rows through Len, ID, Record or Columns", u.Fset.Position(sel.Pos()))
			}
		}
	}
	if checked != 8 {
		t.Fatalf("checked %d packages, want 8", checked)
	}
}
