package joblog

import (
	"math"
	"testing"
)

func TestSortedIndexNumeric(t *testing.T) {
	l := NewLog(colSchema())
	for _, v := range []Value{Num(3), Num(1), None(), Num(3), Num(math.NaN()), Num(-2)} {
		l.MustAppend(&Record{ID: "r", Values: []Value{v, Str("x")}})
	}
	c := l.Columns()
	ix := c.SortedIndex(0)

	// Present rows: 0,1,3,4,5 (row 2 missing); NaN row 4 is counted
	// present but excluded from Perm and flagged.
	if ix.NPresent != 5 || !ix.HasNaN {
		t.Fatalf("NPresent=%d HasNaN=%v", ix.NPresent, ix.HasNaN)
	}
	want := []int32{5, 1, 0, 3} // -2, 1, 3, 3 — ties in row order
	if len(ix.Perm) != len(want) {
		t.Fatalf("Perm = %v", ix.Perm)
	}
	for i, r := range want {
		if ix.Perm[i] != r {
			t.Fatalf("Perm = %v, want %v", ix.Perm, want)
		}
	}
	if ix.Min != -2 || ix.Max != 3 {
		t.Errorf("zone = [%v, %v], want [-2, 3]", ix.Min, ix.Max)
	}

	if got := ix.EqualNum(3); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("EqualNum(3) = %v", got)
	}
	if got := ix.EqualNum(2); len(got) != 0 {
		t.Errorf("EqualNum(2) = %v", got)
	}
	if got := ix.EqualNum(math.NaN()); got != nil {
		t.Errorf("EqualNum(NaN) = %v", got)
	}
	if lo, hi := ix.SeekGE(1), ix.SeekGT(1); lo != 1 || hi != 2 {
		t.Errorf("SeekGE/GT(1) = %d, %d", lo, hi)
	}
	if got := ix.SeekGT(3); got != len(ix.Perm) {
		t.Errorf("SeekGT(max) = %d", got)
	}
	if got := ix.SeekGE(-100); got != 0 {
		t.Errorf("SeekGE(-100) = %d", got)
	}

	// Memoized on the view; rebuilt when the log grows.
	if c.SortedIndex(0) != ix {
		t.Error("index not memoized")
	}
	l.MustAppend(&Record{ID: "r", Values: []Value{Num(99), Str("x")}})
	if ix2 := l.Columns().SortedIndex(0); ix2 == ix || ix2.Max != 99 {
		t.Errorf("index not rebuilt after append (Max=%v)", ix2.Max)
	}
}

func TestSortedIndexNominal(t *testing.T) {
	l := NewLog(colSchema())
	for _, s := range []string{"b", "a", "b", "c"} {
		l.MustAppend(&Record{ID: "r", Values: []Value{Num(0), Str(s)}})
	}
	l.MustAppend(&Record{ID: "r", Values: []Value{Num(0), None()}})
	c := l.Columns()
	ix := c.SortedIndex(1)
	if ix.NPresent != 4 || ix.HasNaN {
		t.Fatalf("NPresent=%d HasNaN=%v", ix.NPresent, ix.HasNaN)
	}
	// Nominal zones are undefined.
	if !math.IsNaN(ix.Min) || !math.IsNaN(ix.Max) {
		t.Errorf("nominal zone = [%v, %v], want NaN", ix.Min, ix.Max)
	}
	id, ok := c.Intern().Lookup("b")
	if !ok {
		t.Fatal("b not interned")
	}
	if got := ix.EqualSym(id); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("EqualSym(b) = %v", got)
	}
	// The permutation groups equal symbols contiguously with rows
	// ascending inside each run.
	seen := map[uint32]uint32{}
	var last int32 = -1
	prev := ^uint32(0)
	for _, r := range ix.Perm {
		s := c.Col(1).Sym[r]
		if s == prev {
			if r <= last {
				t.Fatalf("rows not ascending within symbol run: %v", ix.Perm)
			}
		} else if _, dup := seen[s]; dup {
			t.Fatalf("symbol run split: %v", ix.Perm)
		}
		seen[s] = s
		prev, last = s, r
	}
}

func TestSortedIndexAllNaN(t *testing.T) {
	l := NewLog(colSchema())
	for i := 0; i < 3; i++ {
		l.MustAppend(&Record{ID: "r", Values: []Value{Num(math.NaN()), Str("x")}})
	}
	ix := l.Columns().SortedIndex(0)
	// Every cell is present but NaN: counted, flagged, excluded from Perm.
	if ix.NPresent != 3 || !ix.HasNaN || len(ix.Perm) != 0 {
		t.Fatalf("NPresent=%d HasNaN=%v Perm=%v", ix.NPresent, ix.HasNaN, ix.Perm)
	}
	if !math.IsNaN(ix.Min) || !math.IsNaN(ix.Max) {
		t.Errorf("zone = [%v, %v], want NaN (no orderable values)", ix.Min, ix.Max)
	}
	if got := ix.EqualNum(0); len(got) != 0 {
		t.Errorf("EqualNum(0) = %v", got)
	}
	if got := ix.RangeBetween(math.Inf(-1), math.Inf(1), false, false); len(got) != 0 {
		t.Errorf("RangeBetween(-inf, +inf) = %v", got)
	}
}

func TestSortedIndexAllMissing(t *testing.T) {
	l := NewLog(colSchema())
	for i := 0; i < 4; i++ {
		l.MustAppend(&Record{ID: "r", Values: []Value{None(), Str("x")}})
	}
	ix := l.Columns().SortedIndex(0)
	if ix.NPresent != 0 || ix.HasNaN || len(ix.Perm) != 0 {
		t.Fatalf("NPresent=%d HasNaN=%v Perm=%v", ix.NPresent, ix.HasNaN, ix.Perm)
	}
	if !math.IsNaN(ix.Min) || !math.IsNaN(ix.Max) {
		t.Errorf("zone = [%v, %v], want NaN", ix.Min, ix.Max)
	}
	if got := ix.SeekGE(math.Inf(-1)); got != 0 {
		t.Errorf("SeekGE(-inf) = %d, want 0 on empty Perm", got)
	}
	if got := ix.RangeBetween(0, math.Inf(1), false, false); len(got) != 0 {
		t.Errorf("RangeBetween(0, +inf) = %v", got)
	}
}

func TestSortedIndexEmptyLog(t *testing.T) {
	l := NewLog(colSchema())
	for f := 0; f < 2; f++ {
		ix := l.Columns().SortedIndex(f)
		if ix.NPresent != 0 || ix.HasNaN || len(ix.Perm) != 0 {
			t.Fatalf("field %d: NPresent=%d HasNaN=%v Perm=%v", f, ix.NPresent, ix.HasNaN, ix.Perm)
		}
	}
	ix := l.Columns().SortedIndex(0)
	if got := ix.EqualNum(1); len(got) != 0 {
		t.Errorf("EqualNum on empty log = %v", got)
	}
	if got := ix.RangeBetween(math.Inf(-1), 5, false, true); len(got) != 0 {
		t.Errorf("RangeBetween on empty log = %v", got)
	}
	sx := l.Columns().SortedIndex(1)
	if got := sx.EqualSym(0); len(got) != 0 {
		t.Errorf("EqualSym on empty log = %v", got)
	}
}

func TestSortedIndexSingleRow(t *testing.T) {
	l := NewLog(colSchema())
	l.MustAppend(&Record{ID: "r", Values: []Value{Num(7), Str("only")}})
	ix := l.Columns().SortedIndex(0)
	if ix.NPresent != 1 || len(ix.Perm) != 1 || ix.Perm[0] != 0 {
		t.Fatalf("NPresent=%d Perm=%v", ix.NPresent, ix.Perm)
	}
	if ix.Min != 7 || ix.Max != 7 {
		t.Errorf("zone = [%v, %v], want [7, 7]", ix.Min, ix.Max)
	}
	if lo, hi := ix.SeekGE(7), ix.SeekGT(7); lo != 0 || hi != 1 {
		t.Errorf("SeekGE/GT(7) = %d, %d", lo, hi)
	}
	if got := ix.EqualNum(7); len(got) != 1 || got[0] != 0 {
		t.Errorf("EqualNum(7) = %v", got)
	}
	if got := ix.RangeBetween(7, 7, false, false); len(got) != 1 {
		t.Errorf("RangeBetween[7, 7] = %v", got)
	}
	// Either bound open excludes the single value.
	if got := ix.RangeBetween(7, 7, true, false); len(got) != 0 {
		t.Errorf("RangeBetween(7, 7] = %v", got)
	}
	if got := ix.RangeBetween(7, 7, false, true); len(got) != 0 {
		t.Errorf("RangeBetween[7, 7) = %v", got)
	}
}

func TestSortedIndexEqualSymAbsent(t *testing.T) {
	l := NewLog(colSchema())
	for _, s := range []string{"a", "b", "c"} {
		l.MustAppend(&Record{ID: "r", Values: []Value{Num(0), Str(s)}})
	}
	c := l.Columns()
	ix := c.SortedIndex(1)
	// A symbol id interned by some other column (or never interned at
	// all) has no run in this column's permutation.
	for _, id := range []uint32{9999, ^uint32(0)} {
		if got := ix.EqualSym(id); len(got) != 0 {
			t.Errorf("EqualSym(%d) = %v, want empty", id, got)
		}
	}
}

func TestSortedIndexRangeBounds(t *testing.T) {
	l := NewLog(colSchema())
	for _, v := range []float64{10, 20, 20, 30} {
		l.MustAppend(&Record{ID: "r", Values: []Value{Num(v), Str("x")}})
	}
	ix := l.Columns().SortedIndex(0)

	if got := ix.RangeBetween(20, math.Inf(1), false, false); len(got) != 3 {
		t.Errorf("RangeBetween(20, +inf) = %v, want 3 rows", got)
	}
	if got := ix.RangeBetween(math.Inf(-1), 20, false, true); len(got) != 1 || got[0] != 0 {
		t.Errorf("RangeBetween(-inf, 20) open = %v, want [0]", got)
	}
	if got := ix.RangeBetween(20, 30, true, true); len(got) != 0 {
		t.Errorf("RangeBetween(20, 30) open = %v, want empty", got)
	}
	if got := ix.RangeBetween(10, 30, true, true); len(got) != 2 {
		t.Errorf("RangeBetween(10, 30) open = %v, want the two 20s", got)
	}
	if got := ix.RangeBetween(math.Inf(-1), math.Inf(1), false, false); len(got) != 4 {
		t.Errorf("RangeBetween(-inf, +inf) = %v, want all rows", got)
	}
	// Inverted and NaN intervals match nothing.
	if got := ix.RangeBetween(30, 10, false, false); got != nil {
		t.Errorf("inverted RangeBetween = %v, want nil", got)
	}
	if got := ix.RangeBetween(math.NaN(), 30, false, false); got != nil {
		t.Errorf("RangeBetween(NaN, 30) = %v, want nil", got)
	}
	if got := ix.RangeBetween(10, math.NaN(), false, false); got != nil {
		t.Errorf("RangeBetween(10, NaN) = %v, want nil", got)
	}
}
