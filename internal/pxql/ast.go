// Package pxql implements the PerfXplain Query Language of paper
// Section 3.2: a query names a pair of executions and three conjunctive
// predicates (despite, observed, expected) over the derived pair features
// of Table 1. The package provides the AST, a parser for the paper's
// surface syntax, and predicate evaluation over records and pairs.
package pxql

import (
	"fmt"
	"strings"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
)

// Op is a comparison operator. PXQL supports =, !=, <, <=, >, >=
// (Section 3.2); ordered operators apply only to numeric features.
type Op int

const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in PXQL surface syntax.
func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Atom is one comparison `feature op constant`.
type Atom struct {
	Feature string
	Op      Op
	Value   joblog.Value
}

// Eval evaluates the atom against a feature value. A missing value fails
// every operator (including !=), mirroring SQL NULL comparison semantics:
// we never claim knowledge about an absent measurement.
func (a Atom) Eval(v joblog.Value) bool {
	if v.IsMissing() || a.Value.IsMissing() {
		return false
	}
	if v.Kind == joblog.Nominal || a.Value.Kind == joblog.Nominal {
		// Nominal comparisons require both sides nominal and support
		// only equality tests.
		if v.Kind != joblog.Nominal || a.Value.Kind != joblog.Nominal {
			return false
		}
		switch a.Op {
		case OpEq:
			return v.Str == a.Value.Str
		case OpNe:
			return v.Str != a.Value.Str
		default:
			return false
		}
	}
	x, c := v.Num, a.Value.Num
	switch a.Op {
	case OpEq:
		return x == c
	case OpNe:
		return x != c
	case OpLt:
		return x < c
	case OpLe:
		return x <= c
	case OpGt:
		return x > c
	case OpGe:
		return x >= c
	default:
		return false
	}
}

// String renders the atom in PXQL syntax.
func (a Atom) String() string {
	return fmt.Sprintf("%s %s %s", a.Feature, a.Op, valueLiteral(a.Value))
}

// valueLiteral renders a constant so that it parses back to the same
// value of the same kind: a nominal constant is printed bare only when
// the lexer reads it back as one identifier token, and quoted otherwise
// ('123' must not come back numeric, nor 'a→b' as three tokens). The
// canonical query string is the explanation cache's key, so a lossy
// literal would serve one query's answer for another.
func valueLiteral(v joblog.Value) string {
	if v.Kind == joblog.Nominal && !isIdent(v.Str) {
		return quote(v.Str)
	}
	return v.String()
}

// quote renders s as a single-quoted PXQL string; lexString undoes
// exactly this escaping.
func quote(s string) string {
	return "'" + stringEscaper.Replace(s) + "'"
}

var stringEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

// Predicate is a conjunction of atoms. The empty predicate is `true`
// (Section 3.2: omitting the despite clause sets des to true).
type Predicate []Atom

// String renders the predicate, or "true" when empty.
func (p Predicate) String() string {
	if len(p) == 0 {
		return "true"
	}
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = a.String()
	}
	return strings.Join(parts, " AND ")
}

// EvalPair evaluates the predicate against the derived features of the
// ordered pair (x, y), computing only the features the atoms mention.
func (p Predicate) EvalPair(d *features.Deriver, x, y *joblog.Record) bool {
	for _, a := range p {
		v, ok := d.ValueByName(x, y, a.Feature)
		if !ok || !a.Eval(v) {
			return false
		}
	}
	return true
}

// And returns the conjunction p ∧ q as a new predicate.
func (p Predicate) And(q Predicate) Predicate {
	out := make(Predicate, 0, len(p)+len(q))
	out = append(out, p...)
	out = append(out, q...)
	return out
}

// Validate checks every atom against a schema: the feature must exist and
// ordered operators require numeric features.
func (p Predicate) Validate(schema *joblog.Schema) error {
	for _, a := range p {
		i, ok := schema.Index(a.Feature)
		if !ok {
			return fmt.Errorf("pxql: unknown feature %q", a.Feature)
		}
		if schema.Field(i).Kind == joblog.Nominal && a.Op != OpEq && a.Op != OpNe {
			return fmt.Errorf("pxql: operator %s not valid for nominal feature %q", a.Op, a.Feature)
		}
	}
	return nil
}

// Query is a full PXQL query (Definition 1): the pair of interest plus the
// (despite, observed, expected) triple. Either ID may be empty when the
// query is built programmatically and bound to records later.
type Query struct {
	ID1, ID2 string
	Despite  Predicate
	Observed Predicate
	Expected Predicate
}

// String renders the query in PXQL surface syntax.
func (q *Query) String() string {
	var b strings.Builder
	if q.ID1 != "" || q.ID2 != "" {
		fmt.Fprintf(&b, "FOR X1, X2 WHERE X1.ID = %s AND X2.ID = %s\n", quote(q.ID1), quote(q.ID2))
	}
	if len(q.Despite) > 0 {
		fmt.Fprintf(&b, "DESPITE %s\n", q.Despite)
	}
	fmt.Fprintf(&b, "OBSERVED %s\n", q.Observed)
	fmt.Fprintf(&b, "EXPECTED %s", q.Expected)
	return b.String()
}

// Validate checks the query's well-formedness against a derived schema:
// all predicates must validate and the observed and expected clauses must
// be non-empty (Definition 1 requires obs(J1,J2) true and exp(J1,J2)
// false, which the explainer checks against the bound pair).
func (q *Query) Validate(schema *joblog.Schema) error {
	if len(q.Observed) == 0 {
		return fmt.Errorf("pxql: query needs an OBSERVED clause")
	}
	if len(q.Expected) == 0 {
		return fmt.Errorf("pxql: query needs an EXPECTED clause")
	}
	for _, p := range []Predicate{q.Despite, q.Observed, q.Expected} {
		if err := p.Validate(schema); err != nil {
			return err
		}
	}
	return nil
}
