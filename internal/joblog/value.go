// Package joblog defines the execution-log data model that PerfXplain
// learns from: typed feature values, schemas, records and logs for
// MapReduce jobs and tasks (paper Section 3.1), plus CSV and JSON
// persistence so logs survive across the collect / explain tools.
package joblog

import (
	"fmt"
	"strconv"
)

// Kind describes what a Value holds.
type Kind int

const (
	// Missing marks an absent value. Derived pair features use it when a
	// feature does not apply (e.g. compare features of nominal raws).
	Missing Kind = iota
	// Numeric values are float64s (bytes, seconds, counts, utilizations).
	Numeric
	// Nominal values are strings drawn from a finite domain (script names,
	// hostnames, the T/F and LT/SIM/GT codes of derived features).
	Nominal
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Missing:
		return "missing"
	case Numeric:
		return "numeric"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single feature value: numeric, nominal, or missing.
// The zero Value is missing, which is the correct default for sparse
// derived feature vectors.
type Value struct {
	Kind Kind
	Num  float64
	Str  string
}

// Num returns a numeric value.
func Num(x float64) Value { return Value{Kind: Numeric, Num: x} }

// Str returns a nominal value.
func Str(s string) Value { return Value{Kind: Nominal, Str: s} }

// None returns a missing value.
func None() Value { return Value{} }

// IsMissing reports whether the value is absent.
func (v Value) IsMissing() bool { return v.Kind == Missing }

// Equal reports whether two values are identical (same kind and payload).
// Missing never equals anything, including another missing value, mirroring
// SQL NULL semantics so predicates on missing features evaluate false.
func (v Value) Equal(o Value) bool {
	if v.Kind == Missing || o.Kind == Missing {
		return false
	}
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == Numeric {
		return v.Num == o.Num
	}
	return v.Str == o.Str
}

// String renders the value for display and CSV storage. Missing renders
// as the empty string; nominal values pass through; numerics use the
// shortest round-trippable form.
func (v Value) String() string {
	switch v.Kind {
	case Missing:
		return ""
	case Numeric:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	default:
		return v.Str
	}
}

// ParseValue parses s as a value of the given kind. The empty string is
// missing for every kind.
func ParseValue(kind Kind, s string) (Value, error) {
	if s == "" {
		return None(), nil
	}
	switch kind {
	case Numeric:
		x, ok := parseNumeric(s)
		if !ok {
			var err error
			if x, err = strconv.ParseFloat(s, 64); err != nil {
				return None(), fmt.Errorf("joblog: parse numeric %q: %w", s, err)
			}
		}
		return Num(x), nil
	case Nominal:
		return Str(s), nil
	default:
		return None(), fmt.Errorf("joblog: cannot parse into kind %v", kind)
	}
}
