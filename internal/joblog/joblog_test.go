package joblog

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema([]Field{
		{Name: "pigscript", Kind: Nominal},
		{Name: "numinstances", Kind: Numeric},
		{Name: "duration", Kind: Numeric},
	})
}

func testLog() *Log {
	l := NewLog(testSchema())
	l.MustAppend(&Record{ID: "job-1", Values: []Value{Str("filter"), Num(4), Num(120)}})
	l.MustAppend(&Record{ID: "job-2", Values: []Value{Str("groupby"), Num(8), Num(240)}})
	l.MustAppend(&Record{ID: "job-3", Values: []Value{Str("filter"), None(), Num(60)}})
	return l
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{Num(1), Num(1), true},
		{Num(1), Num(2), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Num(1), Str("1"), false},
		{None(), None(), false}, // missing never equals, like SQL NULL
		{None(), Num(0), false},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := Num(x)
		back, err := ParseValue(Numeric, v.String())
		return err == nil && back.Num == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	v, err := ParseValue(Nominal, "simple-filter.pig")
	if err != nil || v != Str("simple-filter.pig") {
		t.Errorf("nominal parse = %v, %v", v, err)
	}
	v, err = ParseValue(Numeric, "")
	if err != nil || !v.IsMissing() {
		t.Errorf("empty string should parse as missing, got %v, %v", v, err)
	}
	if _, err := ParseValue(Numeric, "not-a-number"); err == nil {
		t.Error("expected error for bad numeric")
	}
	if _, err := ParseValue(Missing, "x"); err == nil {
		t.Error("expected error parsing into Missing kind")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	i, ok := s.Index("duration")
	if !ok || i != 2 {
		t.Errorf("Index(duration) = %d, %v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should miss")
	}
	if got := s.MustIndex("pigscript"); got != 0 {
		t.Errorf("MustIndex = %d", got)
	}
	if !s.Equal(testSchema()) {
		t.Error("identical schemas not Equal")
	}
	other := NewSchema([]Field{{Name: "x", Kind: Numeric}})
	if s.Equal(other) {
		t.Error("different schemas Equal")
	}
}

func TestSchemaPanics(t *testing.T) {
	for name, fields := range map[string][]Field{
		"duplicate": {{Name: "a", Kind: Numeric}, {Name: "a", Kind: Nominal}},
		"empty":     {{Name: "", Kind: Numeric}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s field list did not panic", name)
				}
			}()
			NewSchema(fields)
		}()
	}
}

func TestLogAppendValidates(t *testing.T) {
	l := NewLog(testSchema())
	err := l.Append(&Record{ID: "short", Values: []Value{Str("x")}})
	if err == nil {
		t.Error("expected width mismatch error")
	}
}

func TestLogAccessors(t *testing.T) {
	l := testLog()
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	r := l.Find("job-2")
	if r == nil || l.Value(r, "numinstances") != Num(8) {
		t.Errorf("Find/Value failed: %v", r)
	}
	if l.Find("nope") != nil {
		t.Error("Find(nope) should be nil")
	}
	if !l.Value(l.Records[0], "absent").IsMissing() {
		t.Error("absent field should read as missing")
	}

	filtered := l.Filter(func(r *Record) bool { return l.Value(r, "pigscript") == Str("filter") })
	if filtered.Len() != 2 {
		t.Errorf("Filter kept %d records, want 2", filtered.Len())
	}
	if filtered.Schema != l.Schema {
		t.Error("Filter should share schema")
	}
}

func TestDomain(t *testing.T) {
	l := testLog()
	got := l.Domain("pigscript")
	want := []string{"filter", "groupby"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Domain = %v, want %v", got, want)
	}
	if l.Domain("numinstances") != nil {
		t.Error("Domain of numeric field should be nil")
	}
	if l.Domain("absent") != nil {
		t.Error("Domain of absent field should be nil")
	}
}

func TestNumericRange(t *testing.T) {
	l := testLog()
	min, max, ok := l.NumericRange("numinstances")
	if !ok || min != 4 || max != 8 {
		t.Errorf("NumericRange = %v, %v, %v", min, max, ok)
	}
	if _, _, ok := l.NumericRange("pigscript"); ok {
		t.Error("range of nominal field should not be ok")
	}
	if _, _, ok := l.NumericRange("absent"); ok {
		t.Error("range of absent field should not be ok")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l := testLog()
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertLogsEqual(t, l, back)
}

func TestJSONRoundTrip(t *testing.T) {
	l := testLog()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertLogsEqual(t, l, back)
}

func assertLogsEqual(t *testing.T, want, got *Log) {
	t.Helper()
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", want.Schema.Fields(), got.Schema.Fields())
	}
	if want.Len() != got.Len() {
		t.Fatalf("record count %d vs %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Record(i), got.Record(i)
		if w.ID != g.ID {
			t.Fatalf("record %d id %q vs %q", i, w.ID, g.ID)
		}
		for j := range w.Values {
			wv, gv := w.Values[j], g.Values[j]
			if wv.IsMissing() != gv.IsMissing() {
				t.Fatalf("record %s field %d missing mismatch", w.ID, j)
			}
			if !wv.IsMissing() && !wv.Equal(gv) {
				t.Fatalf("record %s field %d %v vs %v", w.ID, j, wv, gv)
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json": "{",
		"bad kind": `{"fields":[{"name":"x","kind":"weird"}],"records":[]}`,
		"bad num":  `{"fields":[{"name":"x","kind":"numeric"}],"records":[{"id":"a","values":{"x":"zzz"}}]}`,
		"dup name": `{"fields":[{"name":"x","kind":"numeric"},{"name":"x","kind":"nominal"}],"records":[]}`,
		"no name":  `{"fields":[{"name":"","kind":"numeric"}],"records":[]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRecordClone(t *testing.T) {
	r := &Record{ID: "a", Values: []Value{Num(1)}}
	c := r.Clone()
	c.Values[0] = Num(2)
	if r.Values[0] != Num(1) {
		t.Error("Clone shares value storage")
	}
}
