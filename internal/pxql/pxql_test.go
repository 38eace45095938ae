package pxql

import (
	"strings"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
)

func TestAtomEval(t *testing.T) {
	tests := []struct {
		name string
		atom Atom
		val  joblog.Value
		want bool
	}{
		{"nominal eq hit", Atom{"f", OpEq, joblog.Str("T")}, joblog.Str("T"), true},
		{"nominal eq miss", Atom{"f", OpEq, joblog.Str("T")}, joblog.Str("F"), false},
		{"nominal ne", Atom{"f", OpNe, joblog.Str("T")}, joblog.Str("F"), true},
		{"nominal lt invalid", Atom{"f", OpLt, joblog.Str("T")}, joblog.Str("A"), false},
		{"numeric lt", Atom{"f", OpLt, joblog.Num(10)}, joblog.Num(5), true},
		{"numeric le edge", Atom{"f", OpLe, joblog.Num(10)}, joblog.Num(10), true},
		{"numeric gt", Atom{"f", OpGt, joblog.Num(10)}, joblog.Num(15), true},
		{"numeric ge edge", Atom{"f", OpGe, joblog.Num(10)}, joblog.Num(10), true},
		{"numeric eq", Atom{"f", OpEq, joblog.Num(10)}, joblog.Num(10), true},
		{"numeric ne", Atom{"f", OpNe, joblog.Num(10)}, joblog.Num(11), true},
		{"missing value", Atom{"f", OpEq, joblog.Str("T")}, joblog.None(), false},
		{"missing ne", Atom{"f", OpNe, joblog.Str("T")}, joblog.None(), false},
		{"kind mismatch num atom", Atom{"f", OpEq, joblog.Num(1)}, joblog.Str("1"), false},
		{"kind mismatch str atom", Atom{"f", OpEq, joblog.Str("1")}, joblog.Num(1), false},
	}
	for _, tt := range tests {
		if got := tt.atom.Eval(tt.val); got != tt.want {
			t.Errorf("%s: Eval = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestPredicateString(t *testing.T) {
	var empty Predicate
	if empty.String() != "true" {
		t.Errorf("empty predicate = %q", empty.String())
	}
	p := Predicate{
		{"inputsize_compare", OpEq, joblog.Str("GT")},
		{"numinstances", OpLe, joblog.Num(12)},
	}
	want := "inputsize_compare = GT AND numinstances <= 12"
	if p.String() != want {
		t.Errorf("String = %q, want %q", p.String(), want)
	}
}

func TestPredicateEvalPair(t *testing.T) {
	raw := joblog.NewSchema([]joblog.Field{
		{Name: "inputsize", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	d := features.NewDeriver(raw, features.Level3)
	a := &joblog.Record{ID: "a", Values: []joblog.Value{joblog.Num(2000), joblog.Num(100)}}
	b := &joblog.Record{ID: "b", Values: []joblog.Value{joblog.Num(1000), joblog.Num(100)}}
	p := Predicate{
		{"inputsize_compare", OpEq, joblog.Str("GT")},
		{"duration_compare", OpEq, joblog.Str("SIM")},
	}
	if !p.EvalPair(d, a, b) {
		t.Error("pair predicate should hold")
	}
	if p.EvalPair(d, b, a) {
		t.Error("reversed pair should fail (inputsize LT)")
	}
}

func TestPredicateAndFeatures(t *testing.T) {
	p := Predicate{{"a", OpEq, joblog.Str("x")}}
	q := Predicate{{"b", OpEq, joblog.Str("y")}, {"a", OpNe, joblog.Str("z")}}
	both := p.And(q)
	if len(both) != 3 {
		t.Fatalf("And length = %d", len(both))
	}
	if both[0].Feature != "a" || both[1].Feature != "b" || both[2].Feature != "a" {
		t.Errorf("And reordered the atoms: %v", both)
	}
	// And must not alias its receivers.
	p[0].Feature = "mutated"
	if both[0].Feature != "a" {
		t.Error("And aliases receiver storage")
	}
}

func TestValidate(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "n", Kind: joblog.Numeric},
		{Name: "s", Kind: joblog.Nominal},
	})
	good := Predicate{{"n", OpLe, joblog.Num(3)}, {"s", OpEq, joblog.Str("x")}}
	if err := good.Validate(schema); err != nil {
		t.Errorf("good predicate: %v", err)
	}
	if err := (Predicate{{"zzz", OpEq, joblog.Num(1)}}).Validate(schema); err == nil {
		t.Error("unknown feature should fail validation")
	}
	if err := (Predicate{{"s", OpLt, joblog.Str("x")}}).Validate(schema); err == nil {
		t.Error("ordered op on nominal should fail validation")
	}
}

func TestParseFullQuery(t *testing.T) {
	src := `
FOR J1, J2 WHERE J1.JobID = 'job-012' AND J2.JobID = 'job-340'
DESPITE numinstances_issame = T AND pigscript_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID1 != "job-012" || q.ID2 != "job-340" {
		t.Errorf("IDs = %q, %q", q.ID1, q.ID2)
	}
	if len(q.Despite) != 2 || q.Despite[0].Feature != "numinstances_issame" {
		t.Errorf("Despite = %v", q.Despite)
	}
	if len(q.Observed) != 1 || q.Observed[0].Value != joblog.Str("GT") {
		t.Errorf("Observed = %v", q.Observed)
	}
	if len(q.Expected) != 1 || q.Expected[0].Value != joblog.Str("SIM") {
		t.Errorf("Expected = %v", q.Expected)
	}
}

func TestParseWithoutForClause(t *testing.T) {
	q, err := Parse("OBSERVED duration_compare = LT EXPECTED duration_compare = SIM")
	if err != nil {
		t.Fatal(err)
	}
	if q.ID1 != "" || q.ID2 != "" || len(q.Despite) != 0 {
		t.Errorf("unexpected bindings: %+v", q)
	}
}

func TestParseUnits(t *testing.T) {
	p, err := ParsePredicate("blocksize >= 128MB AND inputsize < 1.3gb")
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Value.Num != 128*(1<<20) {
		t.Errorf("128MB = %v", p[0].Value.Num)
	}
	if p[1].Value.Num != 1.3*(1<<30) {
		t.Errorf("1.3gb = %v", p[1].Value.Num)
	}
}

func TestParseUnicodeAnd(t *testing.T) {
	p, err := ParsePredicate("a = T ∧ b = F")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Errorf("got %d atoms", len(p))
	}
}

func TestParseOperators(t *testing.T) {
	p, err := ParsePredicate("a != x AND b <> y AND c <= 3 AND d >= 4 AND e < 5 AND f > 6")
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []Op{OpNe, OpNe, OpLe, OpGe, OpLt, OpGt}
	for i, a := range p {
		if a.Op != wantOps[i] {
			t.Errorf("atom %d op = %v, want %v", i, a.Op, wantOps[i])
		}
	}
}

func TestParseQuotedValuesAndComments(t *testing.T) {
	p, err := ParsePredicate("pigscript = 'simple-filter.pig' # trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Value != joblog.Str("simple-filter.pig") {
		t.Errorf("value = %v", p[0].Value)
	}
	p, err = ParsePredicate(`hostname = "ip-10-0-0-1"`)
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Value != joblog.Str("ip-10-0-0-1") {
		t.Errorf("value = %v", p[0].Value)
	}
}

func TestParseEmptyPredicate(t *testing.T) {
	p, err := ParsePredicate("   ")
	if err != nil || p != nil {
		t.Errorf("empty predicate = %v, %v", p, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing observed":    "DESPITE a = T EXPECTED b = F",
		"missing expected":    "OBSERVED a = T",
		"trailing":            "OBSERVED a = T EXPECTED b = F garbage = here",
		"bad operator target": "OBSERVED a = ,",
		"unterminated string": "OBSERVED a = 'oops",
		"bad unit":            "OBSERVED a = 12parsecs EXPECTED b = F",
		"stray bang":          "OBSERVED a ! b EXPECTED c = d",
		"where unknown var":   "FOR J1, J2 WHERE J3.ID = 'x' AND J2.ID = 'y' OBSERVED a = T EXPECTED b = F",
		"where missing bind":  "FOR J1, J2 WHERE J1.ID = 'x' OBSERVED a = T EXPECTED b = F",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error for %q", name, src)
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	for _, src := range []string{"a =", "= b", "a b c", "a < 'x' AND"} {
		if _, err := ParsePredicate(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	src := `FOR J1, J2 WHERE J1.ID = 'a' AND J2.ID = 'b'
DESPITE x_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if q2.ID1 != q.ID1 || q2.ID2 != q.ID2 || q2.String() != q.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", q, q2)
	}
}

func TestQueryValidate(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "duration_compare", Kind: joblog.Nominal},
	})
	q := &Query{
		Observed: Predicate{{"duration_compare", OpEq, joblog.Str("GT")}},
		Expected: Predicate{{"duration_compare", OpEq, joblog.Str("SIM")}},
	}
	if err := q.Validate(schema); err != nil {
		t.Errorf("valid query: %v", err)
	}
	if err := (&Query{Expected: q.Expected}).Validate(schema); err == nil {
		t.Error("missing observed should fail")
	}
	if err := (&Query{Observed: q.Observed}).Validate(schema); err == nil {
		t.Error("missing expected should fail")
	}
	bad := &Query{
		Observed: Predicate{{"nope", OpEq, joblog.Str("GT")}},
		Expected: q.Expected,
	}
	if err := bad.Validate(schema); err == nil {
		t.Error("unknown feature should fail")
	}
}

func TestAtomStringQuoting(t *testing.T) {
	a := Atom{"f", OpEq, joblog.Str("has space")}
	if !strings.Contains(a.String(), "'has space'") {
		t.Errorf("String = %q", a.String())
	}
	// Identifier-shaped constants stay bare; everything else is quoted
	// and comes back as the same nominal value.
	for _, v := range []string{"T", "simple-filter", "_x9"} {
		if got := (Atom{"f", OpEq, joblog.Str(v)}).String(); got != "f = "+v {
			t.Errorf("String = %q, want the bare constant %s", got, v)
		}
	}
	for _, v := range []string{"", "123", "1e3", "-5", "-", "9lives", `a\`, `\'`, "it's", "a→b", "a∧b", "é", "a/b", "two\nlines", "x # y"} {
		src := Atom{"f", OpNe, joblog.Str(v)}.String()
		back, err := ParsePredicate(src)
		if err != nil {
			t.Errorf("%q renders as %q, which does not parse: %v", v, src, err)
			continue
		}
		if len(back) != 1 || back[0].Value != joblog.Str(v) {
			t.Errorf("%q renders as %q and parses back as %v", v, src, back)
		}
	}
	q := &Query{ID1: "it's", ID2: `back\slash`, Observed: Predicate{a}, Expected: Predicate{a}}
	back, err := Parse(q.String())
	if err != nil || back.ID1 != q.ID1 || back.ID2 != q.ID2 {
		t.Errorf("IDs (%q, %q) came back as %+v, %v", q.ID1, q.ID2, back, err)
	}
}
