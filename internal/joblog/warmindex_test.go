package joblog

import (
	"fmt"
	"math"
	"reflect"
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

// TestMergedIndexMemoAcrossWatermarks is the staleness regression test
// for the store-level sealed-prefix permutation memo: successive
// watermarks must each produce indexes element-identical to a fresh
// whole-log sort, the memo must advance with the sealed prefix instead
// of being rebuilt, and an *old* snapshot whose lazy index fires after
// the memo has moved past its prefix must still see its own watermark's
// rows only.
func TestMergedIndexMemoAcrossWatermarks(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(60)
	st := NewStore(schema, 8)

	freshIndex := func(n, f int) *ColIndex {
		l := NewLog(schema)
		for _, r := range recs[:n] {
			l.MustAppend(r)
		}
		return l.Columns().SortedIndex(f)
	}

	var snaps []*Snapshot
	var lens []int
	for _, n := range []int{20, 37, 60} {
		for i := st.Len(); i < n; i++ {
			st.MustAppend(recs[i])
		}
		snap := st.Snapshot()
		snaps = append(snaps, snap)
		lens = append(lens, n)
		for f := 0; f < schema.Len(); f++ {
			name := fmt.Sprintf("n=%d/%s", n, schema.Field(f).Name)
			assertIndexEqual(t, name, snap.Log().Columns().SortedIndex(f), freshIndex(n, f))
		}
		// The memo tracks the full sealed prefix after each watermark's
		// indexes have been built.
		st.ixMu.Lock()
		for f := 0; f < schema.Len(); f++ {
			if memo := st.ixMemo[f]; memo == nil || memo.nSegs != len(st.sealed) {
				t.Fatalf("n=%d field %d: memo covers %v segments, want %d",
					n, f, memo, len(st.sealed))
			}
		}
		st.ixMu.Unlock()
	}

	// Stale-prefix path: force the earliest snapshot to rebuild its
	// indexes on a fresh assembled view now that the memo covers a longer
	// prefix than that snapshot's sealed set. (Snapshot memoization means
	// the original view already has its indexes cached, so re-assemble a
	// view at the old watermark by hand through the public hook path.)
	old := snaps[0].Log()
	for f := 0; f < schema.Len(); f++ {
		cols := old.Columns()
		// Drop the memoized index so the hook reruns against the advanced
		// store memo.
		cols.memoMu.Lock()
		delete(cols.memos, colIndexKey(f))
		cols.memoMu.Unlock()
		name := fmt.Sprintf("stale/n=%d/%s", lens[0], schema.Field(f).Name)
		assertIndexEqual(t, name, cols.SortedIndex(f), freshIndex(lens[0], f))
	}
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
}

// TestEqualRowsBitmapSurvivesAppends pins the second sub-quadratic
// follow-up: sealed segments' per-atom bitmaps are memoized on the
// segments themselves, so appending (and re-snapshotting) reuses the
// very same bitmap objects instead of rescanning sealed rows — and the
// stitched result stays byte-identical to a fresh flat build.
func TestEqualRowsBitmapSurvivesAppends(t *testing.T) {
	schema := segTestSchema()
	recs := segTestRecords(60)
	st := NewStore(schema, 8)
	for _, r := range recs[:30] {
		st.MustAppend(r)
	}
	snap1 := st.Snapshot()
	c1 := snap1.Log().Columns()
	probe := Str("east")
	const f = 0 // "site"
	bm1 := c1.EqualRowsBitmap(f, probe)

	// Capture the sealed segments' memoized per-segment bitmaps.
	id, ok := c1.Intern().Lookup(probe.Str)
	if !ok {
		t.Fatal("probe symbol not interned")
	}
	key := eqRowsKey{f: f, bits: uint64(id)}
	st.mu.Lock()
	segBitmaps := make([]any, len(st.sealed))
	for i, seg := range st.sealed {
		v, ok := seg.memoGet(key)
		if !ok {
			t.Fatalf("segment %d has no memoized bitmap after snapshot query", i)
		}
		segBitmaps[i] = v
	}
	nSealed1 := len(st.sealed)
	st.mu.Unlock()

	for _, r := range recs[30:] {
		st.MustAppend(r)
	}
	snap2 := st.Snapshot()
	c2 := snap2.Log().Columns()
	bm2 := c2.EqualRowsBitmap(f, probe)

	// The old segments' bitmaps were reused, not rebuilt: same objects.
	st.mu.Lock()
	for i := 0; i < nSealed1; i++ {
		v, ok := st.sealed[i].memoGet(key)
		if !ok || !reflect.DeepEqual(v, segBitmaps[i]) {
			t.Errorf("segment %d bitmap rebuilt across appends", i)
		}
		got, old := v.(Bitmap), segBitmaps[i].(Bitmap)
		if len(got) > 0 && len(old) > 0 && &got[0] != &old[0] {
			t.Errorf("segment %d bitmap is a new allocation, want the memoized one", i)
		}
	}
	st.mu.Unlock()

	// Old snapshot unchanged; new snapshot byte-identical to flat build.
	want1 := NewLog(schema)
	for _, r := range recs[:30] {
		want1.MustAppend(r)
	}
	if !reflect.DeepEqual([]uint64(bm1), []uint64(want1.Columns().EqualRowsBitmap(f, probe))) {
		t.Error("old snapshot bitmap diverged from its watermark's flat build")
	}
	want2 := NewLog(schema)
	for _, r := range recs {
		want2.MustAppend(r)
	}
	if !reflect.DeepEqual([]uint64(bm2), []uint64(want2.Columns().EqualRowsBitmap(f, probe))) {
		t.Error("new snapshot bitmap diverged from flat build")
	}
}
