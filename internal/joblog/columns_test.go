package joblog

import (
	"math"
	"strings"
	"testing"
)

func colSchema() *Schema {
	return NewSchema([]Field{
		{Name: "n", Kind: Numeric},
		{Name: "s", Kind: Nominal},
	})
}

func TestColumnsPlanes(t *testing.T) {
	l := NewLog(colSchema())
	l.MustAppend(&Record{ID: "a", Values: []Value{Num(1.5), Str("x")}})
	l.MustAppend(&Record{ID: "b", Values: []Value{None(), Str("y")}})
	l.MustAppend(&Record{ID: "c", Values: []Value{Num(-2), None()}})
	l.MustAppend(&Record{ID: "d", Values: []Value{Num(0), Str("x")}})

	c := l.Columns()
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	n, s := c.Col(0), c.Col(1)
	if n.Sym != nil || s.Num != nil {
		t.Fatal("plane kinds crossed")
	}
	if n.Num[0] != 1.5 || n.Num[2] != -2 || n.Num[3] != 0 {
		t.Errorf("numeric plane = %v", n.Num)
	}
	if !n.Miss.Get(1) || n.Miss.Get(0) || !s.Miss.Get(2) || s.Miss.Get(3) {
		t.Error("missing bitmaps wrong")
	}
	if s.Sym[0] != s.Sym[3] || s.Sym[0] == s.Sym[1] {
		t.Errorf("symbol plane = %v", s.Sym)
	}
	if got := c.Intern().Str(s.Sym[1]); got != "y" {
		t.Errorf("decode = %q", got)
	}
	if id, ok := c.Intern().Lookup("x"); !ok || id != s.Sym[0] {
		t.Errorf("Lookup(x) = %d, %v", id, ok)
	}
	if _, ok := c.Intern().Lookup("zzz"); ok {
		t.Error("Lookup of unseen string succeeded")
	}
}

func TestColumnsMemoInvalidation(t *testing.T) {
	l := NewLog(colSchema())
	l.MustAppend(&Record{ID: "a", Values: []Value{Num(1), Str("x")}})
	c1 := l.Columns()
	if c2 := l.Columns(); c2 != c1 {
		t.Error("columns not memoized at stable record count")
	}
	l.MustAppend(&Record{ID: "b", Values: []Value{Num(2), Str("y")}})
	c3 := l.Columns()
	if c3 == c1 {
		t.Error("columns not rebuilt after append")
	}
	if c3.Len() != 2 || c1.Len() != 1 {
		t.Errorf("lengths = %d, %d", c3.Len(), c1.Len())
	}
	// The old view stays valid for its record count.
	if c1.Col(0).Num[0] != 1 {
		t.Error("old view corrupted")
	}
}

// TestNonCanonicalCellsRefused: every door a record enters a log by
// refuses a cell that is not canonical for its field, names the record,
// the field and both kinds, and appends nothing.
func TestNonCanonicalCellsRefused(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8dead0000beef)
	for _, c := range []struct {
		name  string
		field int // 0 is numeric "n", 1 nominal "s"
		v     Value
	}{
		{"nominal in numeric", 0, Str("oops")},
		{"numeric in nominal", 1, Num(3)},
		{"missing with num", 0, Value{Kind: Missing, Num: 3}},
		{"missing with -0", 1, Value{Kind: Missing, Num: negZero}},
		{"missing with NaN payload", 0, Value{Kind: Missing, Num: nan}},
		{"missing with str", 1, Value{Kind: Missing, Str: "ghost"}},
		{"numeric with str", 0, Value{Kind: Numeric, Num: 2, Str: "tagged"}},
		{"nominal with -0", 1, Value{Kind: Nominal, Str: "a", Num: negZero}},
		{"nominal with NaN payload", 1, Value{Kind: Nominal, Str: "a", Num: nan}},
		{"empty nominal", 1, Str("")},
		{"Kind(7)", 0, Value{Kind: Kind(7), Num: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			schema := colSchema()
			good := &Record{ID: "good", Values: []Value{Num(1), Str("x")}}
			bad := &Record{ID: "bad", Values: []Value{Num(1), Str("x")}}
			bad.Values[c.field] = c.v
			field := schema.Field(c.field).Name

			l := NewLog(schema)
			l.MustAppend(good)
			if err := l.Append(bad); err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), `"`+field+`"`) {
				t.Errorf("Log.Append: error %v, want one naming record \"bad\" and field %q", err, field)
			}
			if l.Len() != 1 || l.Columns().Len() != 1 {
				t.Errorf("Log.Append: log holds %d records, want 1", l.Len())
			}

			st := NewStore(schema, 1)
			st.MustAppend(good)
			gen := st.Gen()
			if err := st.Append(bad); err == nil || !strings.Contains(err.Error(), `"bad"`) {
				t.Errorf("Store.Append: error %v, want one naming record \"bad\"", err)
			}
			if st.Len() != 1 || st.Gen() != gen || st.Snapshot().Log().Len() != 1 {
				t.Errorf("Store.Append: store holds %d records at watermark %d, want 1 at %d", st.Len(), st.Gen(), gen)
			}

			if got, err := WireSlice(schema, []*Record{good, bad}).Log(); err == nil || !strings.Contains(err.Error(), `"bad"`) {
				t.Errorf("WireLog.Log: log %v, error %v; want an error naming record \"bad\"", got, err)
			}
		})
	}
	// The message names both kinds.
	err := NewLog(colSchema()).Append(&Record{ID: "r", Values: []Value{Str("oops"), None()}})
	if want := `joblog: record "r" field "n" (numeric) holds a nominal value`; err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}

	// A record grown into Records by hand passes no door: building the
	// planes over it panics rather than change the cell.
	l := NewLog(colSchema())
	l.Records = append(l.Records, &Record{ID: "r", Values: []Value{Str("oops"), None()}})
	defer func() {
		if recover() == nil {
			t.Error("Columns over a hand-grown non-canonical record did not panic")
		}
	}()
	l.Columns()
}

func TestFindMemo(t *testing.T) {
	l := NewLog(colSchema())
	l.MustAppend(&Record{ID: "a", Values: []Value{Num(1), Str("x")}})
	l.MustAppend(&Record{ID: "dup", Values: []Value{Num(2), Str("x")}})
	l.MustAppend(&Record{ID: "dup", Values: []Value{Num(3), Str("x")}})

	if got := l.Find("missing"); got != nil {
		t.Error("Find of absent ID should be nil")
	}
	if got := l.Find("dup"); got == nil || got.Values[0] != Num(2) {
		t.Error("Find must return the first duplicate, like the linear scan")
	}
	if i, ok := l.FindIndex("dup"); !ok || i != 1 {
		t.Errorf("FindIndex(dup) = %d, %v", i, ok)
	}
	// Growth invalidates the memo.
	l.MustAppend(&Record{ID: "late", Values: []Value{Num(4), Str("y")}})
	if got := l.Find("late"); got == nil || got.Values[0] != Num(4) {
		t.Error("Find does not see appended records")
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 129} {
		if b.Get(i) {
			t.Errorf("bit %d set in fresh bitmap", i)
		}
		b.SetBit(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(65) || b.Get(128) {
		t.Error("neighbouring bits disturbed")
	}
}
