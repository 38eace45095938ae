package joblog

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"
)

// segTestSchema exercises every plane shape the snapshot assembler
// stitches: nominal and numeric fields, missing cells, ±Inf, -0 and NaN
// cells, and a NaN-first numeric field (whose range the merge must
// poison exactly like the sequential scan). Every cell is canonical for
// its field: no door admits any other.
func segTestSchema() *Schema {
	return NewSchema([]Field{
		{Name: "site", Kind: Nominal},
		{Name: "x", Kind: Numeric},
		{Name: "mix", Kind: Numeric}, // receives ±Inf, -0 and missing cells
		{Name: "tag", Kind: Nominal}, // receives missing and empty cells
		{Name: "nf", Kind: Numeric},  // first cell is NaN
	})
}

func segTestRecords(n int) []*Record {
	sites := []string{"east", "west", "eu", "apac"}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
	recs := make([]*Record, n)
	for i := 0; i < n; i++ {
		vals := make([]Value, 5)
		vals[0] = Str(sites[next()%uint64(len(sites))])
		switch next() % 5 {
		case 0:
			vals[1] = Value{} // missing
		case 1:
			vals[1] = Num(math.NaN())
		default:
			vals[1] = Num(float64(int64(next()%1000)) - 500)
		}
		if next()%4 == 0 {
			vals[2] = []Value{{}, Num(math.Inf(1)), Num(math.Copysign(0, -1)), Num(math.Inf(-1))}[next()%4]
		} else {
			vals[2] = Num(float64(next() % 50))
		}
		if next()%4 == 0 {
			vals[3] = []Value{{}, Str(" ")}[next()%2]
		} else {
			vals[3] = Str(sites[next()%2])
		}
		if i == 0 {
			vals[4] = Num(math.NaN())
		} else {
			vals[4] = Num(float64(next() % 100))
		}
		// Awkward canonical cells, and IDs that are not keys; none of it
		// draws from rng, so the rest of the fixture is what it was.
		switch i % 13 {
		case 6:
			vals[1] = Num(math.Inf(-1))
		case 9:
			vals[4] = Num(math.Copysign(0, -1))
		case 11:
			vals[0] = Str(" ")
		}
		id := fmt.Sprintf("r-%03d", i)
		switch {
		case i == 4:
			id = ""
		case i%9 == 8:
			id = fmt.Sprintf("r-%03d", i-5)
		}
		recs[i] = &Record{ID: id, Values: vals}
	}
	return recs
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// assertLogEquivalent checks that got behaves exactly like a fresh Log
// over the same records: the records themselves, ID lookup, CSV and JSON
// bytes, columnar planes, intern table, sorted indexes, and attribute
// statistics.
func assertLogEquivalent(t *testing.T, got, want *Log) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Record(i), want.Record(i); !sameRecord(g, w) || got.ID(i) != w.ID {
			t.Fatalf("Record(%d) = %#v, want %#v", i, g, w)
		}
		gi, gok := got.FindIndex(want.ID(i))
		if wi, wok := want.FindIndex(want.ID(i)); gi != wi || gok != wok {
			t.Errorf("FindIndex(%q) = %d, %v, want %d, %v", want.ID(i), gi, gok, wi, wok)
		}
	}
	if _, ok := got.FindIndex("no such record"); ok || got.Find("no such record") != nil {
		t.Error("Find resolves an ID the log does not hold")
	}
	for name, write := range map[string]func(*Log, io.Writer) error{"WriteCSV": (*Log).WriteCSV, "WriteJSON": (*Log).WriteJSON} {
		var g, w bytes.Buffer
		if err := write(got, &g); err != nil {
			t.Fatal(err)
		}
		if err := write(want, &w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Errorf("%s wrote\n%s\nwant\n%s", name, g.Bytes(), w.Bytes())
		}
	}
	gc, wc := got.Columns(), want.Columns()
	if !reflect.DeepEqual(gc.Intern().Strings(), wc.Intern().Strings()) {
		t.Fatalf("intern tables differ:\n got %v\nwant %v", gc.Intern().Strings(), wc.Intern().Strings())
	}
	for f := 0; f < want.Schema.Len(); f++ {
		name := want.Schema.Fields()[f].Name
		g, w := gc.Col(f), wc.Col(f)
		if g.Kind != w.Kind {
			t.Errorf("%s: kind = %v, want %v", name, g.Kind, w.Kind)
		}
		if !sameFloats(g.Num, w.Num) {
			t.Errorf("%s: Num planes differ", name)
		}
		if !reflect.DeepEqual(g.Sym, w.Sym) {
			t.Errorf("%s: Sym planes differ\n got %v\nwant %v", name, g.Sym, w.Sym)
		}
		for i := 0; i < want.Len(); i++ {
			if g.Miss.Get(i) != w.Miss.Get(i) {
				t.Errorf("%s: Miss[%d] = %v, want %v", name, i, g.Miss.Get(i), w.Miss.Get(i))
			}
		}
		gi, wi := gc.SortedIndex(f), wc.SortedIndex(f)
		if !reflect.DeepEqual(gi.Perm, wi.Perm) {
			t.Errorf("%s: index Perm differs\n got %v\nwant %v", name, gi.Perm, wi.Perm)
		}
		if !sameFloat(gi.Min, wi.Min) || !sameFloat(gi.Max, wi.Max) ||
			gi.NPresent != wi.NPresent || gi.HasNaN != wi.HasNaN {
			t.Errorf("%s: index summary = (%v, %v, %d, %v), want (%v, %v, %d, %v)",
				name, gi.Min, gi.Max, gi.NPresent, gi.HasNaN, wi.Min, wi.Max, wi.NPresent, wi.HasNaN)
		}
		if want.Schema.Fields()[f].Kind == Nominal {
			if !reflect.DeepEqual(got.Domain(name), want.Domain(name)) {
				t.Errorf("%s: Domain = %v, want %v", name, got.Domain(name), want.Domain(name))
			}
		} else {
			gmin, gmax, gok := got.NumericRange(name)
			wmin, wmax, wok := want.NumericRange(name)
			if gok != wok || !sameFloat(gmin, wmin) || !sameFloat(gmax, wmax) {
				t.Errorf("%s: NumericRange = (%v, %v, %v), want (%v, %v, %v)",
					name, gmin, gmax, gok, wmin, wmax, wok)
			}
		}
	}
}

// TestStoreSnapshotEquivalence pins the segmented store's contract: a
// snapshot's log — its view of the arena's planes, the indexes it
// extends from the store's prefix orders, and its statistics — is
// indistinguishable from a fresh Log over the same records, at every
// seal threshold and tail length, and when two stores ingest one log.
func TestStoreSnapshotEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 5, 20, 47} {
		for _, sealEvery := range []int{1, 3, 7, 64} {
			for _, forceSeal := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/seal=%d/force=%v", n, sealEvery, forceSeal), func(t *testing.T) {
					schema := segTestSchema()
					recs := segTestRecords(n)
					st := NewStore(schema, sealEvery)
					want := NewLog(schema)
					for _, r := range recs {
						st.MustAppend(r)
						want.MustAppend(r)
					}
					if forceSeal {
						st.Seal()
						if tailLen(st) != 0 {
							t.Fatalf("tail after Seal = %d", tailLen(st))
						}
					}
					snap := st.Snapshot()
					assertLogEquivalent(t, snap.Log(), want)

					// The views tile the record space contiguously.
					off := 0
					for _, v := range snap.Log().SegmentViews() {
						if v.Start != off {
							t.Fatalf("segment starts at %d, want %d", v.Start, off)
						}
						off += v.Len()
					}
					if off != n {
						t.Fatalf("segments cover %d records, want %d", off, n)
					}
				})
			}
		}
	}

	// Far more sealed segments than indexes ever cared about: the first
	// watermark's index is one sort from an empty memo, the second
	// extends the memo the first one left behind.
	t.Run("many segments", func(t *testing.T) {
		schema := segTestSchema()
		recs := segTestRecords(600)
		st := NewStore(schema, 4)
		want := NewLog(schema)
		for i, r := range recs {
			st.MustAppend(r)
			want.MustAppend(r)
			if i+1 == 262 || i+1 == len(recs) {
				if st.SealedSegments() < 64 {
					t.Fatalf("%d sealed segments, want at least 64", st.SealedSegments())
				}
				assertLogEquivalent(t, st.Snapshot().Log(), want)
			}
		}
	})

	// Two empty stores ingest one plane-backed log, then each appends
	// rows of its own: rows with missing cells in the log's last word of
	// missing bits, and symbols the log never held. Neither store may
	// write what the log or the other store reads.
	t.Run("adopt", func(t *testing.T) {
		schema := segTestSchema()
		recs := segTestRecords(47 + 2*30)
		fresh := func(rs ...[]*Record) *Log {
			l := NewLog(schema)
			for _, part := range rs {
				for _, r := range part {
					l.MustAppend(r)
				}
			}
			return l
		}
		shared, err := Concat([]*Log{fresh(recs[:47])})
		if err != nil {
			t.Fatal(err)
		}
		mine := []*Record{{ID: "a-new", Values: []Value{Str("only-a"), {}, {}, {}, {}}}}
		theirs := []*Record{{ID: "b-new", Values: []Value{Str("only-b"), Num(1), {}, Str("b-tag"), {}}}}
		tails := [][]*Record{append(mine, recs[47:77]...), append(theirs, recs[77:]...)}
		stores := []*Store{NewStore(schema, 16), NewStore(schema, 7)}
		for i, st := range stores {
			if err := st.Ingest(shared); err != nil {
				t.Fatal(err)
			}
			for j, r := range tails[i] {
				if j%2 == 0 {
					st.MustAppend(r)
				} else if err := st.Ingest(fresh([]*Record{r})); err != nil {
					t.Fatal(err)
				}
			}
		}
		assertLogEquivalent(t, shared, fresh(recs[:47]))
		for i, st := range stores {
			assertLogEquivalent(t, st.Snapshot().Log(), fresh(recs[:47], tails[i]))
		}
	})
}

// TestSnapshotStableAcrossAppends pins watermark semantics: a snapshot
// never changes after it is taken, sealed segments keep their content
// hashes forever, and only the tail view differs between watermarks.
func TestSnapshotStableAcrossAppends(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(30)
	st := NewStore(schema, 8)
	for _, r := range recs[:20] {
		st.MustAppend(r)
	}
	snap1 := st.Snapshot()
	n1 := snap1.Log().Len()
	dom1 := snap1.Log().Domain("site")
	hashes1 := map[string]bool{}
	for _, v := range snap1.Log().SegmentViews() {
		if v.Sealed {
			hashes1[v.Hash] = true
		}
	}

	for _, r := range recs[20:] {
		st.MustAppend(r)
	}
	snap2 := st.Snapshot()
	if got := snap1.Log().Len(); got != n1 {
		t.Fatalf("old snapshot grew: %d, want %d", got, n1)
	}
	if got := snap1.Log().Domain("site"); !reflect.DeepEqual(got, dom1) {
		t.Errorf("old snapshot Domain changed: %v, want %v", got, dom1)
	}
	if got := snap2.Log().Len(); got != 30 {
		t.Fatalf("new snapshot Len = %d, want 30", got)
	}
	for _, v := range snap2.Log().SegmentViews() {
		if v.Sealed && v.Start < n1 && !hashes1[v.Hash] {
			// Every sealed segment the first watermark already had must
			// reappear with an identical hash — that is what lets a
			// frame reference the segments a worker holds across appends.
			if v.Start+v.Len() <= n1 {
				t.Errorf("sealed segment at %d changed hash across appends", v.Start)
			}
		}
	}
	if snap2.Gen() == snap1.Gen() {
		t.Error("watermark did not advance across appends")
	}
	// Snapshot is memoized per watermark.
	if st.Snapshot() != snap2 {
		t.Error("repeated Snapshot at one watermark returned a new value")
	}
}

func TestStoreAppendValidates(t *testing.T) {
	st := NewStore(segTestSchema(), 4)
	if err := st.Append(&Record{ID: "short", Values: []Value{Str("x")}}); err == nil {
		t.Error("Append with wrong width succeeded")
	}
	if st.Len() != 0 {
		t.Errorf("Len after rejected Append = %d", st.Len())
	}
}

// TestStoreConcurrentAppendWhileQuery drives appends concurrently with
// snapshot queries — the shape the -race CI leg exercises. Each reader
// works on its own consistent watermark; results only ever grow.
func TestStoreConcurrentAppendWhileQuery(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(200)
	st := NewStore(schema, 16)
	for _, r := range recs[:8] {
		st.MustAppend(r)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range recs[8:] {
			st.MustAppend(r)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for i := 0; i < 50; i++ {
				l := st.Snapshot().Log()
				if l.Len() < prev {
					t.Errorf("snapshot shrank: %d after %d", l.Len(), prev)
					return
				}
				prev = l.Len()
				cols := l.Columns()
				for f := 0; f < schema.Len(); f++ {
					cols.SortedIndex(f)
				}
				l.Domain("site")
				l.NumericRange("x")
			}
		}()
	}
	wg.Wait()
	snap := st.Snapshot()
	if got := snap.Log().Len(); got != 200 {
		t.Fatalf("final Len = %d, want 200", got)
	}
	want := NewLog(schema)
	for _, r := range recs {
		want.MustAppend(r)
	}
	assertLogEquivalent(t, snap.Log(), want)
}

// TestSnapshotSurvivesArenaGrowth: a snapshot views the store's arena,
// so it must read the same while the store appends past it — by Append
// and by Ingest, in place and into new arrays — and while readers read
// it. The snapshot ends mid-word of the missing bits, so rows appended
// after it write the word its last rows read from, and they intern
// symbols the snapshot has not seen. Under -race this is
// the check that the store never writes memory a snapshot reads.
func TestSnapshotSurvivesArenaGrowth(t *testing.T) {
	schema := segTestSchema()
	const at = 45
	recs := segTestRecords(at + 400)
	for i, r := range recs[at:] {
		r.Values[3] = Str(fmt.Sprintf("tag-%d", i)) // symbols the snapshot's table lacks
	}
	st := NewStore(schema, 16)
	for _, r := range recs[:at] {
		st.MustAppend(r)
	}
	snap := st.Snapshot().Log()
	want := NewLog(schema)
	for _, r := range recs[:at] {
		want.MustAppend(r)
	}
	wc := want.Columns()

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			for pass := 0; ; pass++ {
				if pass > 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
				c := snap.Columns()
				for i := 0; i < at; i++ {
					if snap.ID(i) != want.ID(i) || !sameRecord(snap.Record(i), want.Record(i)) {
						t.Errorf("row %d reads %#v, want %#v", i, snap.Record(i), want.Record(i))
						return
					}
					for f := 0; f < schema.Len(); f++ {
						g, w := c.Col(f), wc.Col(f)
						if g.Miss.Get(i) != w.Miss.Get(i) ||
							(g.Num != nil && math.Float64bits(g.Num[i]) != math.Float64bits(w.Num[i])) ||
							(g.Sym != nil && g.Sym[i] != w.Sym[i]) {
							t.Errorf("row %d field %d changed under the snapshot", i, f)
							return
						}
					}
				}
			}
		}()
	}

	// Append and Ingest by turns until the arena has moved to new arrays
	// twice.
	arrays := func() (*string, *float64) {
		st.mu.Lock()
		defer st.mu.Unlock()
		return &st.arena.ids[0], &st.arena.cols[1].Num[0]
	}
	ids, num := arrays()
	moves, next := 0, at
	started.Wait()
	for moves < 2 {
		if next+3 > len(recs) {
			t.Fatalf("the arena moved %d times in %d rows", moves, len(recs))
		}
		st.MustAppend(recs[next])
		batch := NewLog(schema)
		for _, r := range recs[next+1 : next+3] {
			batch.MustAppend(r)
		}
		if err := st.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		next += 3
		if i, n := arrays(); i != ids || n != num {
			if i == ids || n == num {
				t.Fatal("the arena moved some planes and not others")
			}
			ids, num = i, n
			moves++
		}
	}
	close(stop)
	wg.Wait()
	assertLogEquivalent(t, snap, want)
	all := NewLog(schema)
	for _, r := range recs[:next] {
		all.MustAppend(r)
	}
	assertLogEquivalent(t, st.Snapshot().Log(), all)
}

// TestLogSegmentViews pins a flat log's own decomposition: the views a
// default-threshold store over the same records exposes — same
// boundaries, same content hashes — memoized per log generation, with
// full runs keeping their hashes as the log grows.
func TestLogSegmentViews(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(2*DefaultSealThreshold + 37)
	log := &Log{Schema: schema, Records: recs}
	st := NewStore(schema, 0)
	for _, r := range recs {
		st.MustAppend(r)
	}
	views, want := log.SegmentViews(), st.Snapshot().Log().SegmentViews()
	if len(views) != 3 || len(views) != len(want) {
		t.Fatalf("flat log has %d views, store has %d; want 3", len(views), len(want))
	}
	for i, v := range views {
		if v.Start != want[i].Start || v.Len() != want[i].Len() || v.Hash != want[i].Hash || v.Sealed != want[i].Sealed {
			t.Errorf("view %d = {start %d len %d hash %.12s sealed %v}, store's = {start %d len %d hash %.12s sealed %v}",
				i, v.Start, v.Len(), v.Hash, v.Sealed, want[i].Start, want[i].Len(), want[i].Hash, want[i].Sealed)
		}
	}
	if again := log.SegmentViews(); &again[0] != &views[0] {
		t.Error("views rebuilt within one log generation")
	}

	// Growth re-cuts: the full runs keep their hashes, the tail's changes.
	log.MustAppend(segTestRecords(1)[0])
	grown := log.SegmentViews()
	if len(grown) != 3 || grown[0].Hash != views[0].Hash || grown[1].Hash != views[1].Hash {
		t.Error("a full run lost its hash when the log grew")
	}
	if grown[2].Hash == views[2].Hash || grown[2].Len() != views[2].Len()+1 {
		t.Error("the tail view did not follow the append")
	}

	if got := NewLog(schema).SegmentViews(); len(got) != 0 {
		t.Errorf("empty log has %d views", len(got))
	}
}

// builtViews counts the snapshot's sealed segments that hold a wire
// form. White-box: reads segment.view without its Once, so only call it
// while nothing else is asking for SegmentViews.
func builtViews(sn *Snapshot) int {
	n := 0
	for _, seg := range sn.sealed {
		if seg.view.Records.Records != nil || seg.view.Hash != "" {
			n++
		}
	}
	return n
}

// TestSegmentsLazyUntilAsked pins the store's memory policy: appending,
// sealing, snapshotting and every read local execution makes (planes,
// sorted indexes, equality bitmaps, statistics) build no wire form and
// hash nothing; the first SegmentViews call builds exactly the content
// addresses eager sealing used to.
func TestSegmentsLazyUntilAsked(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(30)
	st := NewStore(schema, 8)
	for _, r := range recs[:27] {
		st.MustAppend(r)
	}
	st.Seal()
	for _, r := range recs[27:] {
		st.MustAppend(r)
	}
	snap := st.Snapshot()
	cols := snap.Log().Columns()
	for f := 0; f < schema.Len(); f++ {
		cols.SortedIndex(f)
	}
	cols.EqualRowsBitmap(0, Str("east"))
	snap.Log().Domain("site")
	snap.Log().NumericRange("x")
	if n := builtViews(snap); n != 0 || snap.Log().SegmentViewsBuilt() {
		t.Fatalf("%d sealed segments hold a wire form (snapshot views %v) before anyone asked", n, snap.Log().SegmentViewsBuilt())
	}

	views := snap.Log().SegmentViews()
	if len(views) != 5 || builtViews(snap) != 4 {
		t.Fatalf("%d views, %d sealed wire forms; want 5 and 4", len(views), builtViews(snap))
	}
	off := 0
	for i, v := range views {
		want := recs[off : off+v.Len()]
		if v.Start != off || v.Sealed != (i < 4) || v.Hash != HashSlice(WireSlice(schema, want)) {
			t.Errorf("view %d = {start %d sealed %v hash %.12s}, want {start %d sealed %v hash %.12s}",
				i, v.Start, v.Sealed, v.Hash, off, i < 4, HashSlice(WireSlice(schema, want)))
		}
		off += v.Len()
	}
	if off != len(recs) {
		t.Errorf("views cover %d records, want %d", off, len(recs))
	}

	// A later snapshot shares the sealed views it did not have to build.
	st.MustAppend(segTestRecords(31)[30])
	later := st.Snapshot().Log().SegmentViews()
	for i := 0; i < 4; i++ {
		if &later[i].Records.Records[0] != &views[i].Records.Records[0] {
			t.Errorf("sealed segment %d was wired again for a later snapshot", i)
		}
	}
}

// TestSegmentsLazyConcurrent: goroutines racing for one snapshot's
// views (and, through a sibling snapshot, for the same sealed segments)
// all get the one backing array.
func TestSegmentsLazyConcurrent(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(40)
	st := NewStore(schema, 8)
	for _, r := range recs[:35] {
		st.MustAppend(r)
	}
	snap := st.Snapshot()
	st.MustAppend(recs[35])
	sibling := st.Snapshot()

	got := make([][]SegmentView, 4)
	var sib []SegmentView
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = snap.Log().SegmentViews()
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sib = sibling.Log().SegmentViews()
	}()
	wg.Wait()
	for g := 1; g < len(got); g++ {
		if len(got[g]) != len(got[0]) || &got[g][0] != &got[0][0] {
			t.Fatalf("goroutine %d got its own views", g)
		}
	}
	for i := 0; i < 4; i++ {
		if sib[i].Hash != got[0][i].Hash || &sib[i].Records.Records[0] != &got[0][i].Records.Records[0] {
			t.Errorf("sealed segment %d was built twice by racing snapshots", i)
		}
	}
}

// TestSegmentsLazyOldWatermark: a snapshot first asked for its views
// after the store has grown — and sealed the records that were its tail
// — still describes the watermark it was taken at.
func TestSegmentsLazyOldWatermark(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(30)
	st := NewStore(schema, 8)
	for _, r := range recs[:13] {
		st.MustAppend(r)
	}
	old := st.Snapshot()
	for _, r := range recs[13:] {
		st.MustAppend(r)
	}
	if st.SealedSegments() != 3 {
		t.Fatalf("fixture sealed %d segments, want 3", st.SealedSegments())
	}
	views := old.Log().SegmentViews()
	if len(views) != 2 || !views[0].Sealed || views[1].Sealed || views[1].Start != 8 || views[1].Len() != 5 {
		t.Fatalf("old snapshot's views = %+v, want one sealed run of 8 and a tail of 5", views)
	}
	if want := HashSlice(WireSlice(schema, recs[8:13])); views[1].Hash != want {
		t.Errorf("old tail hash %.12s, want %.12s", views[1].Hash, want)
	}
	if now := st.Snapshot().Log().SegmentViews(); now[0].Hash != views[0].Hash || now[1].Hash == views[1].Hash {
		t.Error("the current watermark does not share the sealed view, or shares the old tail's")
	}
}

// tailLen is the number of records in st's mutable tail.
func tailLen(st *Store) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.arena.n - st.tailStartLocked()
}
