// Package features computes the derived pair features of paper Table 1.
//
// PerfXplain learns from pairs of executions. A pair over a raw schema with
// k features is represented by up to 4·k derived features spanning general
// to specific:
//
//   - f_issame ∈ {T, F}: whether the two executions agree on f. For nominal
//     raws this is exact equality; for numeric raws we use the paper's 10%
//     similarity band, since exact float equality would make the feature
//     degenerate for continuous metrics (the paper's own explanations, e.g.
//     avg_cpu_user isSame = F, only make sense under a tolerance).
//   - f_compare ∈ {LT, SIM, GT}: numeric raws only; whether the first
//     execution's value is much less than, similar to (within 10%), or much
//     greater than the second's. Missing for nominal raws.
//   - f_diff = "(v1→v2)": nominal raws only; the change in value. Missing
//     for numeric raws.
//   - f (base): the shared value, present only when the two executions
//     agree exactly; missing otherwise.
//
// Missing raw values propagate: every derived feature of a pair is missing
// if either side's raw value is missing.
package features

import (
	"fmt"
	"strings"

	"perfxplain/internal/joblog"
	"perfxplain/internal/stats"
)

// Level selects how much of the derived feature hierarchy is exposed,
// matching the three feature sets of paper Section 6.8.
type Level int

const (
	// Level1 exposes only the isSame features.
	Level1 Level = 1
	// Level2 adds the compare and diff features.
	Level2 Level = 2
	// Level3 adds the base features; this is the full Table 1 set and the
	// default everywhere.
	Level3 Level = 3
)

// PairKind identifies which of the four derived families a feature is in.
type PairKind int

const (
	IsSame PairKind = iota
	Compare
	Diff
	Base
)

// String returns the family name as used in feature suffixes.
func (k PairKind) String() string {
	switch k {
	case IsSame:
		return "issame"
	case Compare:
		return "compare"
	case Diff:
		return "diff"
	case Base:
		return "base"
	default:
		return fmt.Sprintf("PairKind(%d)", int(k))
	}
}

// Derived feature values for the nominal code domains.
var (
	ValT   = joblog.Str("T")
	ValF   = joblog.Str("F")
	ValLT  = joblog.Str("LT")
	ValSIM = joblog.Str("SIM")
	ValGT  = joblog.Str("GT")
)

// Name returns the derived feature name for a raw feature and family.
// Base features keep the raw name, so user-facing predicates read exactly
// like the paper's (`blocksize >= 128MB`, `inputsize_compare = GT`).
func Name(raw string, kind PairKind) string {
	if kind == Base {
		return raw
	}
	return raw + "_" + kind.String()
}

// ParseName splits a derived feature name into its raw feature and family.
// Unsuffixed names are base features.
func ParseName(name string) (raw string, kind PairKind) {
	if r, ok := strings.CutSuffix(name, "_issame"); ok {
		return r, IsSame
	}
	if r, ok := strings.CutSuffix(name, "_compare"); ok {
		return r, Compare
	}
	if r, ok := strings.CutSuffix(name, "_diff"); ok {
		return r, Diff
	}
	return name, Base
}

// Deriver derives pair feature vectors for a fixed raw schema and level.
// It precomputes the derived schema (ordered as Table 1: isSame block,
// compare block, diff block, base block) and a per-derived-feature mapping
// back to the raw field.
type Deriver struct {
	raw     *joblog.Schema
	level   Level
	derived *joblog.Schema
	mapping []mapEntry // parallel to derived schema

	// Layout for the columnar engine (see columns.go): per derived
	// feature, its offset among a PairMatrix's numeric columns, symbol
	// columns or code-plane triples (one per raw), plus the
	// raw-field-major materialization plan.
	numOff   []int
	symOff   []int
	codeOff  []int
	numW     int
	symW     int
	rawPlans []rawPlan
}

type mapEntry struct {
	rawIdx int
	kind   PairKind
}

// NewDeriver builds a deriver. It panics if a raw feature name already
// carries a derived suffix, since that would make names ambiguous.
func NewDeriver(raw *joblog.Schema, level Level) *Deriver {
	if level < Level1 || level > Level3 {
		panic(fmt.Sprintf("features: invalid level %d", level))
	}
	for _, f := range raw.Fields() {
		if r, k := ParseName(f.Name); k != Base || r != f.Name {
			panic(fmt.Sprintf("features: raw feature %q collides with derived naming", f.Name))
		}
	}
	d := &Deriver{raw: raw, level: level}
	var fields []joblog.Field
	add := func(rawIdx int, kind PairKind, fieldKind joblog.Kind) {
		fields = append(fields, joblog.Field{
			Name: Name(raw.Field(rawIdx).Name, kind),
			Kind: fieldKind,
		})
		d.mapping = append(d.mapping, mapEntry{rawIdx: rawIdx, kind: kind})
	}
	for i := 0; i < raw.Len(); i++ {
		add(i, IsSame, joblog.Nominal)
	}
	if level >= Level2 {
		for i := 0; i < raw.Len(); i++ {
			add(i, Compare, joblog.Nominal)
		}
		for i := 0; i < raw.Len(); i++ {
			add(i, Diff, joblog.Nominal)
		}
	}
	if level >= Level3 {
		for i := 0; i < raw.Len(); i++ {
			add(i, Base, raw.Field(i).Kind)
		}
	}
	d.derived = joblog.NewSchema(fields)
	d.buildPlanes()
	return d
}

// RawSchema returns the underlying raw schema.
func (d *Deriver) RawSchema() *joblog.Schema { return d.raw }

// Schema returns the derived pair schema.
func (d *Deriver) Schema() *joblog.Schema { return d.derived }

// Level returns the deriver's feature level.
func (d *Deriver) Level() Level { return d.level }

// RawOf returns the raw field index and family of the i'th derived feature.
func (d *Deriver) RawOf(i int) (rawIdx int, kind PairKind) {
	e := d.mapping[i]
	return e.rawIdx, e.kind
}

// Value computes a single derived feature of the pair (a, b) without
// materialising the whole vector. This is what predicate evaluation uses
// when scanning large pair spaces.
func (d *Deriver) Value(a, b *joblog.Record, derivedIdx int) joblog.Value {
	e := d.mapping[derivedIdx]
	return derive(d.raw.Field(e.rawIdx).Kind, a.Values[e.rawIdx], b.Values[e.rawIdx], e.kind)
}

// ValueByName is Value addressed by derived feature name. ok is false when
// the name is not in the derived schema.
func (d *Deriver) ValueByName(a, b *joblog.Record, name string) (joblog.Value, bool) {
	i, ok := d.derived.Index(name)
	if !ok {
		return joblog.None(), false
	}
	return d.Value(a, b, i), true
}

// Vector materialises the full derived feature vector for the pair (a, b),
// in derived-schema order.
func (d *Deriver) Vector(a, b *joblog.Record) []joblog.Value {
	out := make([]joblog.Value, len(d.mapping))
	for i, e := range d.mapping {
		out[i] = derive(d.raw.Field(e.rawIdx).Kind, a.Values[e.rawIdx], b.Values[e.rawIdx], e.kind)
	}
	return out
}

// derive computes one derived value from the two raw values.
func derive(rawKind joblog.Kind, va, vb joblog.Value, kind PairKind) joblog.Value {
	if va.IsMissing() || vb.IsMissing() {
		return joblog.None()
	}
	switch kind {
	case IsSame:
		if rawKind == joblog.Numeric {
			return boolVal(stats.Similar(va.Num, vb.Num))
		}
		return boolVal(va.Str == vb.Str)
	case Compare:
		if rawKind != joblog.Numeric {
			return joblog.None()
		}
		switch {
		case stats.Similar(va.Num, vb.Num):
			return ValSIM
		case va.Num < vb.Num:
			return ValLT
		default:
			return ValGT
		}
	case Diff:
		if rawKind != joblog.Nominal {
			return joblog.None()
		}
		return joblog.Str("(" + va.Str + "→" + vb.Str + ")")
	case Base:
		if va.Equal(vb) {
			return va
		}
		return joblog.None()
	default:
		panic(fmt.Sprintf("features: bad kind %v", kind))
	}
}

func boolVal(b bool) joblog.Value {
	if b {
		return ValT
	}
	return ValF
}
