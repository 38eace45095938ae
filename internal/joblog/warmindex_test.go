package joblog

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// assertIndexEqual checks one snapshot field's sorted index against a
// fresh whole-log build over the same records.
func assertIndexEqual(t *testing.T, name string, got, want *ColIndex) {
	t.Helper()
	if !reflect.DeepEqual(got.Perm, want.Perm) {
		t.Errorf("%s: Perm differs\n got %v\nwant %v", name, got.Perm, want.Perm)
	}
	if !sameFloat(got.Min, want.Min) || !sameFloat(got.Max, want.Max) ||
		got.NPresent != want.NPresent || got.HasNaN != want.HasNaN {
		t.Errorf("%s: summary = (%v, %v, %d, %v), want (%v, %v, %d, %v)",
			name, got.Min, got.Max, got.NPresent, got.HasNaN,
			want.Min, want.Max, want.NPresent, want.HasNaN)
	}
}

// freshIndexer returns field f's sorted index over a fresh flat log of
// recs[:n] — the whole-log build a snapshot's index must equal.
func freshIndexer(schema *Schema, recs []*Record) func(n, f int) *ColIndex {
	return func(n, f int) *ColIndex {
		l := NewLog(schema)
		for _, r := range recs[:n] {
			l.MustAppend(r)
		}
		return l.Columns().SortedIndex(f)
	}
}

// memoRows returns the number of rows the store's prefix order for
// field f covers, or -1 when it has none.
func memoRows(st *Store, f int) int {
	st.ixMu.Lock()
	defer st.ixMu.Unlock()
	if m := st.ixMemo[f]; m != nil {
		return m.n
	}
	return -1
}

// TestMergedIndexMemoAcrossWatermarks is the staleness regression test
// for the store's prefix order memo: successive watermarks — a
// tail-only one, appends that seal segments, and a bulk Ingest of more
// than 64 segments — must each produce indexes element-identical to a
// fresh whole-log sort, the memo must cover exactly the watermark's rows
// once they are built, and an *old* snapshot whose lazy index fires
// after the memo has moved past its rows must still see its own
// watermark's rows only, leaving the memo where it was.
func TestMergedIndexMemoAcrossWatermarks(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(60 + 8*70)
	st := NewStore(schema, 8)
	freshIndex := freshIndexer(schema, recs)

	var snaps []*Snapshot
	for _, n := range []int{5, 20, 37, 60, len(recs)} {
		if n == len(recs) {
			bulk := NewLog(schema)
			for _, r := range recs[st.Len():] {
				bulk.MustAppend(r)
			}
			before := st.SealedSegments()
			if err := st.Ingest(bulk); err != nil {
				t.Fatal(err)
			}
			if k := st.SealedSegments() - before; k < 64 {
				t.Fatalf("bulk ingest sealed %d segments, want at least 64", k)
			}
		}
		for i := st.Len(); i < n; i++ {
			st.MustAppend(recs[i])
		}
		if n == 5 && st.SealedSegments() != 0 {
			t.Fatalf("n=5: %d sealed segments, want a tail-only watermark", st.SealedSegments())
		}
		snap := st.Snapshot()
		snaps = append(snaps, snap)
		for f := 0; f < schema.Len(); f++ {
			name := fmt.Sprintf("n=%d/%s", n, schema.Field(f).Name)
			assertIndexEqual(t, name, snap.Log().Columns().SortedIndex(f), freshIndex(n, f))
			if got := memoRows(st, f); got != n {
				t.Fatalf("%s: memo covers %d rows, want %d", name, got, n)
			}
		}
	}

	// Stale path: rebuild each earlier snapshot's indexes now that the
	// memo covers more rows than it has. (Snapshot memoization means the
	// views already have their indexes cached, so drop them to make the
	// hook run again against the advanced store memo.)
	for _, snap := range snaps[:len(snaps)-1] {
		cols := snap.Log().Columns()
		n := cols.Len()
		for f := 0; f < schema.Len(); f++ {
			cols.memoMu.Lock()
			delete(cols.memos, colIndexKey(f))
			cols.memoMu.Unlock()
			name := fmt.Sprintf("stale/n=%d/%s", n, schema.Field(f).Name)
			assertIndexEqual(t, name, cols.SortedIndex(f), freshIndex(n, f))
			if got := memoRows(st, f); got != len(recs) {
				t.Fatalf("%s: memo covers %d rows after a stale build, want %d", name, got, len(recs))
			}
		}
	}
}

// TestPrefixIndexConcurrentWatermarks races index builds at several
// watermarks against an appender: readers take snapshots as the store
// grows and build every field's index, some at once and some only after
// later watermarks have advanced the memo past them. Every index must
// equal a fresh whole-log build of its watermark, and the memo's row
// count must never shrink — also when snapshots of several watermarks
// newer than the memo build their indexes at the same moment. Under -race this is the check that the memo
// is published safely.
func TestPrefixIndexConcurrentWatermarks(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(240)
	st := NewStore(schema, 16)
	for _, r := range recs[:10] {
		st.MustAppend(r)
	}
	freshIndex := freshIndexer(schema, recs)

	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		prev := make([]int, schema.Len())
		for f := range prev {
			prev[f] = -1
		}
		for {
			for f := range prev {
				got := memoRows(st, f)
				if got < prev[f] {
					t.Errorf("field %d: memo shrank from %d to %d rows", f, prev[f], got)
					return
				}
				prev[f] = got
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for at := 10; at < len(recs); at += 3 {
			st.MustAppend(recs[at])
			batch := NewLog(schema)
			for _, r := range recs[at+1 : min(at+3, len(recs))] {
				batch.MustAppend(r)
			}
			if err := st.Ingest(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*Snapshot
			for i := 0; i < 20; i++ {
				snap := st.Snapshot()
				if i%2 == 0 {
					held = append(held, snap) // indexed later, once the memo has moved on
					continue
				}
				for _, sn := range append(held, snap) {
					cols := sn.Log().Columns()
					for f := 0; f < schema.Len(); f++ {
						name := fmt.Sprintf("n=%d/%s", cols.Len(), schema.Field(f).Name)
						assertIndexEqual(t, name, cols.SortedIndex(f), freshIndex(cols.Len(), f))
					}
				}
				held = held[:0]
			}
		}()
	}
	wg.Wait()

	// Snapshots newer than the memo, built at once: each may advance the
	// memo, and whichever finishes last must not leave it behind the
	// newest watermark built.
	for round := 0; round < 8; round++ {
		var racing []*Snapshot
		for k := 0; k < 4; k++ {
			st.MustAppend(recs[(round*4+k)%len(recs)])
			racing = append(racing, st.Snapshot())
		}
		start := make(chan struct{})
		for _, sn := range racing {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				cols := sn.Log().Columns()
				for f := 0; f < schema.Len(); f++ {
					cols.SortedIndex(f)
				}
			}()
		}
		close(start)
		wg.Wait()
		for f := 0; f < schema.Len(); f++ {
			if got, want := memoRows(st, f), st.Len(); got != want {
				t.Fatalf("round %d field %d: memo covers %d rows after racing builds, want the newest watermark's %d", round, f, got, want)
			}
		}
	}
	close(stop)
	watch.Wait()
}

// eqProbeValues returns the constants TestEqualRowsBitmap* probe each
// field with: values that exist, values that don't, NaN, a missing
// value, and kind mismatches — every branch of the key resolution.
func eqProbeValues(f Field) []Value {
	common := []Value{{}, Num(math.NaN()), Num(7), Num(-493), Num(0),
		Str("east"), Str("eu"), Str(""), Str("never-seen")}
	_ = f
	return common
}

// TestEqualRowsBitmapEquivalence pins plane semantics: for every field
// and probe constant, a snapshot's equality bitmap is bit-identical to
// a flat log's, which in turn matches a row-by-row plane scan.
func TestEqualRowsBitmapEquivalence(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(47)
	for _, sealEvery := range []int{1, 7, 64} {
		st := NewStore(schema, sealEvery)
		want := NewLog(schema)
		for _, r := range recs {
			st.MustAppend(r)
			want.MustAppend(r)
		}
		sc, wc := st.Snapshot().Log().Columns(), want.Columns()
		for f := 0; f < schema.Len(); f++ {
			for _, v := range eqProbeValues(schema.Field(f)) {
				got := sc.EqualRowsBitmap(f, v)
				ref := wc.EqualRowsBitmap(f, v)
				name := fmt.Sprintf("seal=%d/%s/%v", sealEvery, schema.Field(f).Name, v)
				if !reflect.DeepEqual([]uint64(got), []uint64(ref)) {
					t.Errorf("%s: snapshot bitmap differs from flat build", name)
				}
				// And both match first principles on the planes.
				col := wc.Col(f)
				for i := 0; i < want.Len(); i++ {
					match := false
					if !col.Miss.Get(i) && !v.IsMissing() && v.Kind == col.Kind {
						if col.Kind == Numeric {
							match = col.Num[i] == v.Num
						} else if id, ok := wc.Intern().Lookup(v.Str); ok {
							match = col.Sym[i] == id
						}
					}
					if ref.Get(i) != match {
						t.Fatalf("%s: row %d = %v, want %v", name, i, ref.Get(i), match)
					}
				}
			}
		}
	}

	// A snapshot's bitmaps are its own: an old snapshot, asked before and
	// after the store appends past it, and the new watermark's snapshot
	// each equal a flat build of their own rows.
	t.Run("across appends", func(t *testing.T) {
		recs := segTestRecords(60)
		flat := func(n int) *Columns {
			l := NewLog(schema)
			for _, r := range recs[:n] {
				l.MustAppend(r)
			}
			return l.Columns()
		}
		st := NewStore(schema, 8)
		for _, r := range recs[:30] {
			st.MustAppend(r)
		}
		old := st.Snapshot().Log().Columns()
		early := old.EqualRowsBitmap(0, Str("east"))
		for _, r := range recs[30:] {
			st.MustAppend(r)
		}
		cur := st.Snapshot().Log().Columns()
		if !reflect.DeepEqual([]uint64(early), []uint64(flat(30).EqualRowsBitmap(0, Str("east")))) {
			t.Error("old snapshot's bitmap, built before the appends, diverged from its watermark's flat build")
		}
		for _, c := range []struct {
			cols *Columns
			want *Columns
		}{{old, flat(30)}, {cur, flat(60)}} {
			for f := 0; f < schema.Len(); f++ {
				for _, v := range eqProbeValues(schema.Field(f)) {
					if !reflect.DeepEqual([]uint64(c.cols.EqualRowsBitmap(f, v)), []uint64(c.want.EqualRowsBitmap(f, v))) {
						t.Errorf("n=%d/%s/%v: snapshot bitmap differs from flat build", c.cols.Len(), schema.Field(f).Name, v)
					}
				}
			}
		}
	})
}
