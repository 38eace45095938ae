package features

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perfxplain/internal/joblog"
)

func rawSchema() *joblog.Schema {
	return joblog.NewSchema([]joblog.Field{
		{Name: "pigscript", Kind: joblog.Nominal},
		{Name: "inputsize", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
}

func rec(id, script string, input, dur joblog.Value) *joblog.Record {
	return &joblog.Record{ID: id, Values: []joblog.Value{joblog.Str(script), input, dur}}
}

func TestNameRoundTrip(t *testing.T) {
	for _, kind := range []PairKind{IsSame, Compare, Diff, Base} {
		n := Name("inputsize", kind)
		raw, k := ParseName(n)
		if raw != "inputsize" || k != kind {
			t.Errorf("round trip %v: got %q, %v", kind, raw, k)
		}
	}
	if Name("f", Base) != "f" {
		t.Error("base features must keep the raw name")
	}
}

func TestDerivedSchemaShape(t *testing.T) {
	raw := rawSchema()
	for level, want := range map[Level]int{Level1: 3, Level2: 9, Level3: 12} {
		d := NewDeriver(raw, level)
		if got := d.Schema().Len(); got != want {
			t.Errorf("level %d: schema len = %d, want %d", level, got, want)
		}
	}
	d := NewDeriver(raw, Level3)
	// Table 1 ordering: isSame block first, then compare, diff, base.
	if d.Schema().Field(0).Name != "pigscript_issame" {
		t.Errorf("first derived field = %q", d.Schema().Field(0).Name)
	}
	if d.Schema().Field(11).Name != "duration" {
		t.Errorf("last derived field = %q", d.Schema().Field(11).Name)
	}
	if _, ok := d.Schema().Index("inputsize_compare"); !ok {
		t.Error("missing inputsize_compare")
	}
}

func TestDeriverPanics(t *testing.T) {
	bad := joblog.NewSchema([]joblog.Field{{Name: "x_issame", Kind: joblog.Nominal}})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("suffixed raw name did not panic")
			}
		}()
		NewDeriver(bad, Level3)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid level did not panic")
			}
		}()
		NewDeriver(rawSchema(), Level(0))
	}()
}

func TestDeriveValues(t *testing.T) {
	d := NewDeriver(rawSchema(), Level3)
	a := rec("a", "filter", joblog.Num(1000), joblog.Num(120))
	b := rec("b", "groupby", joblog.Num(2000), joblog.Num(125))

	tests := []struct {
		name string
		want joblog.Value
	}{
		{"pigscript_issame", ValF},
		{"inputsize_issame", ValF},
		{"duration_issame", ValT}, // 120 vs 125 is within 10%
		{"pigscript_compare", joblog.None()},
		{"inputsize_compare", ValLT},
		{"duration_compare", ValSIM},
		{"pigscript_diff", joblog.Str("(filter→groupby)")},
		{"inputsize_diff", joblog.None()},
		{"pigscript", joblog.None()}, // base missing: values differ
		{"inputsize", joblog.None()},
	}
	for _, tt := range tests {
		got, ok := d.ValueByName(a, b, tt.name)
		if !ok {
			t.Fatalf("feature %q not found", tt.name)
		}
		if got.IsMissing() != tt.want.IsMissing() || (!got.IsMissing() && !got.Equal(tt.want)) {
			t.Errorf("%s = %v, want %v", tt.name, got, tt.want)
		}
	}

	// Base features present when the values agree exactly.
	c := rec("c", "filter", joblog.Num(1000), joblog.Num(500))
	got, _ := d.ValueByName(a, c, "pigscript")
	if got != joblog.Str("filter") {
		t.Errorf("shared base pigscript = %v", got)
	}
	got, _ = d.ValueByName(a, c, "inputsize")
	if got != joblog.Num(1000) {
		t.Errorf("shared base inputsize = %v", got)
	}
	got, _ = d.ValueByName(a, c, "duration_compare")
	if got != ValLT {
		t.Errorf("duration_compare(120, 500) = %v, want LT", got)
	}
	got, _ = d.ValueByName(c, a, "duration_compare")
	if got != ValGT {
		t.Errorf("duration_compare(500, 120) = %v, want GT", got)
	}
}

func TestMissingPropagates(t *testing.T) {
	d := NewDeriver(rawSchema(), Level3)
	a := rec("a", "filter", joblog.None(), joblog.Num(120))
	b := rec("b", "filter", joblog.Num(100), joblog.Num(120))
	for _, name := range []string{"inputsize_issame", "inputsize_compare", "inputsize"} {
		got, _ := d.ValueByName(a, b, name)
		if !got.IsMissing() {
			t.Errorf("%s should be missing when a raw side is missing, got %v", name, got)
		}
	}
}

func TestValueByNameUnknown(t *testing.T) {
	d := NewDeriver(rawSchema(), Level1)
	if _, ok := d.ValueByName(rec("a", "x", joblog.Num(1), joblog.Num(1)),
		rec("b", "x", joblog.Num(1), joblog.Num(1)), "nope"); ok {
		t.Error("unknown feature should report !ok")
	}
}

func TestVectorMatchesLazyValue(t *testing.T) {
	d := NewDeriver(rawSchema(), Level3)
	a := rec("a", "filter", joblog.Num(1300), joblog.Num(300))
	b := rec("b", "filter", joblog.Num(2600), joblog.Num(310))
	vec := d.Vector(a, b)
	for i := range vec {
		lazy := d.Value(a, b, i)
		if vec[i].IsMissing() != lazy.IsMissing() || (!vec[i].IsMissing() && !vec[i].Equal(lazy)) {
			t.Errorf("feature %d: vector %v != lazy %v", i, vec[i], lazy)
		}
	}
}

// Properties of the derivation, checked with random numeric pairs:
//   - isSame(a,b) is symmetric;
//   - compare(a,b) and compare(b,a) are mirror images;
//   - isSame = T exactly when compare = SIM (for numerics).
func TestDerivedSymmetryProperties(t *testing.T) {
	d := NewDeriver(rawSchema(), Level3)
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		x, y := rng.Float64()*1e6, rng.Float64()*1e6
		a := rec("a", "s", joblog.Num(x), joblog.Num(1))
		b := rec("b", "s", joblog.Num(y), joblog.Num(1))
		same1, _ := d.ValueByName(a, b, "inputsize_issame")
		same2, _ := d.ValueByName(b, a, "inputsize_issame")
		cmp1, _ := d.ValueByName(a, b, "inputsize_compare")
		cmp2, _ := d.ValueByName(b, a, "inputsize_compare")
		if same1 != same2 {
			return false
		}
		mirror := map[joblog.Value]joblog.Value{ValLT: ValGT, ValGT: ValLT, ValSIM: ValSIM}
		if cmp2 != mirror[cmp1] {
			return false
		}
		return (same1 == ValT) == (cmp1 == ValSIM)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRawOf(t *testing.T) {
	d := NewDeriver(rawSchema(), Level3)
	idx := d.Schema().MustIndex("inputsize_compare")
	rawIdx, kind := d.RawOf(idx)
	if d.RawSchema().Field(rawIdx).Name != "inputsize" || kind != Compare {
		t.Errorf("RawOf = %d, %v", rawIdx, kind)
	}
	if d.Level() != Level3 {
		t.Errorf("Level = %v", d.Level())
	}
}
