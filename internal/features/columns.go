package features

// Columnar derivation: the same Table 1 pair features as derive(), but
// computed straight from a joblog.Columns view into flat planes instead
// of boxed joblog.Value structs.
//
// Derived features split across two planes by their derived-schema kind:
//
//   - numeric derived features (base features of numeric raws) live in a
//     float64 plane; NaN encodes missing. The sentinel is exact: a base
//     feature is present only when the two raw values compare equal with
//     ==, which no NaN ever does, so a present base value is never NaN.
//   - nominal derived features live in a uint64 symbol plane holding a
//     packed, per-column encoding: issame uses 0/1 (F/T), compare uses
//     0/1/2 (LT/SIM/GT), base features carry the raw value's intern ID,
//     and diff features pack the two intern IDs as x<<32|y. Symbols are
//     only ever compared within one derived column, so the family-local
//     encodings cannot collide; MissingSym (all ones) encodes missing and
//     cannot alias a diff pack because intern IDs stay below 1<<31.
//
// A PairMatrix is the feature-major materialization of both planes for a
// set of pairs: one FillPairs call writes every derived feature of a run
// of pairs, one raw column at a time, with zero allocation, and scoring
// code reads contiguous columns by (plane, offset).
//
// Raw fields flagged HasAlien (value kind disagreeing with the schema —
// see joblog/columns.go) take the boxed derive() path for their base
// feature, so columnar results match the row engine exactly; issame,
// compare and diff only ever read the planes, which hold v.Num / interned
// v.Str for alien cells too — precisely what derive() reads.

import (
	"math"

	"perfxplain/internal/joblog"
	"perfxplain/internal/stats"
)

// MissingSym is the missing sentinel of the symbol plane.
const MissingSym = ^uint64(0)

// Symbol codes of the issame and compare families.
const (
	SymF = 0 // issame F
	SymT = 1 // issame T

	SymLT  = 0 // compare LT
	SymSIM = 1 // compare SIM
	SymGT  = 2 // compare GT
)

// DiffSym packs a diff feature's two raw intern IDs.
func DiffSym(x, y uint32) uint64 { return uint64(x)<<32 | uint64(y) }

// rawPlan is one raw field's slice of the plane layout: the offsets of
// its derived features, -1 when a family is absent at the deriver's
// level (or lives in the other plane). FillPairs walks this plan so
// each raw cell is read once, not once per derived family.
type rawPlan struct {
	rawIdx     int
	isSameOff  int // symbol plane
	compareOff int // symbol plane; -1 below Level2
	diffOff    int // symbol plane; -1 below Level2
	baseNumOff int // numeric plane; -1 unless Level3 and numeric raw
	baseSymOff int // symbol plane; -1 unless Level3 and nominal raw
	baseIdx    int // derived index of the base feature (alien fallback)
}

// buildPlanes precomputes, for every derived feature, which plane it
// lives in and at which column offset (exactly one of numOff/symOff is
// >= 0), plus the per-raw-field materialization plan.
func (d *Deriver) buildPlanes() {
	d.numOff = make([]int, len(d.mapping))
	d.symOff = make([]int, len(d.mapping))
	plans := make([]rawPlan, d.raw.Len())
	for r := range plans {
		plans[r] = rawPlan{rawIdx: r, isSameOff: -1, compareOff: -1,
			diffOff: -1, baseNumOff: -1, baseSymOff: -1, baseIdx: -1}
	}
	for i, e := range d.mapping {
		d.numOff[i], d.symOff[i] = -1, -1
		if d.derived.Field(i).Kind == joblog.Numeric {
			d.numOff[i] = d.numW
			d.numW++
		} else {
			d.symOff[i] = d.symW
			d.symW++
		}
		p := &plans[e.rawIdx]
		switch e.kind {
		case IsSame:
			p.isSameOff = d.symOff[i]
		case Compare:
			p.compareOff = d.symOff[i]
		case Diff:
			p.diffOff = d.symOff[i]
		case Base:
			p.baseNumOff = d.numOff[i]
			p.baseSymOff = d.symOff[i]
			p.baseIdx = i
		}
	}
	d.rawPlans = plans
}

// NumOffset returns the numeric-plane offset of a derived feature, or -1
// when it lives in the symbol plane.
func (d *Deriver) NumOffset(derivedIdx int) int { return d.numOff[derivedIdx] }

// SymOffset returns the symbol-plane offset of a derived feature, or -1
// when it lives in the numeric plane.
func (d *Deriver) SymOffset(derivedIdx int) int { return d.symOff[derivedIdx] }

// DeriveNum computes a numeric-plane derived feature for the ordered
// record pair (a, b); NaN means missing. Calling it for a symbol-plane
// feature is a programming error.
func (d *Deriver) DeriveNum(cols *joblog.Columns, a, b, derivedIdx int) float64 {
	e := d.mapping[derivedIdx]
	if e.kind != Base {
		panic("features: DeriveNum on a non-base feature")
	}
	c := cols.Col(e.rawIdx)
	if c.Miss.Get(a) || c.Miss.Get(b) {
		return math.NaN()
	}
	if c.HasAlien && (c.Alien(a) || c.Alien(b)) {
		v := derive(c.Kind, cols.Value(a, e.rawIdx), cols.Value(b, e.rawIdx), Base)
		if v.Kind == joblog.Numeric {
			return v.Num
		}
		// A non-numeric derived value cannot live in this plane; encode
		// missing, which every plane consumer treats identically (it can
		// satisfy no predicate and no threshold).
		return math.NaN()
	}
	return BaseNumFast(c, a, b)
}

// IsSameSym computes the issame symbol for the pair (a, b) of one raw
// column: T/F, or MissingSym. Exact for alien cells too — the planes
// hold v.Num / interned v.Str, precisely what derive() compares.
func IsSameSym(c *joblog.Col, a, b int) uint64 {
	if c.Miss.Get(a) || c.Miss.Get(b) {
		return MissingSym
	}
	if c.Kind == joblog.Numeric {
		if stats.Similar(c.Num[a], c.Num[b]) {
			return SymT
		}
		return SymF
	}
	if c.Sym[a] == c.Sym[b] {
		return SymT
	}
	return SymF
}

// CompareSym computes the compare symbol for the pair (a, b) of one raw
// column: LT/SIM/GT for numeric raws, MissingSym otherwise.
func CompareSym(c *joblog.Col, a, b int) uint64 {
	if c.Kind != joblog.Numeric || c.Miss.Get(a) || c.Miss.Get(b) {
		return MissingSym
	}
	return CompareNum(c.Num[a], c.Num[b])
}

// CompareNum is the compare symbol of two present numeric cells: SIM
// inside the 10% band, else LT or GT — GT also when a NaN is involved,
// which is similar to and less than nothing. isSame is T exactly when
// this is SIM, so the one code answers both families.
func CompareNum(x, y float64) uint64 {
	switch {
	case stats.Similar(x, y):
		return SymSIM
	case x < y:
		return SymLT
	default:
		return SymGT
	}
}

// DiffSymOf computes the packed diff symbol for the pair (a, b) of one
// raw column: x<<32|y for nominal raws, MissingSym otherwise.
func DiffSymOf(c *joblog.Col, a, b int) uint64 {
	if c.Kind != joblog.Nominal || c.Miss.Get(a) || c.Miss.Get(b) {
		return MissingSym
	}
	return DiffSym(c.Sym[a], c.Sym[b])
}

// BaseSymFast computes the base symbol of a nominal raw column for the
// pair (a, b), valid only for columns without alien cells (callers with
// HasAlien columns must go through DeriveSym's boxed fallback).
func BaseSymFast(c *joblog.Col, a, b int) uint64 {
	if c.Miss.Get(a) || c.Miss.Get(b) || c.Sym[a] != c.Sym[b] {
		return MissingSym
	}
	return uint64(c.Sym[a])
}

// BaseNumFast computes the base value of a numeric raw column for the
// pair (a, b) — the shared value when the two agree exactly, NaN
// otherwise. Valid only for columns without alien cells.
func BaseNumFast(c *joblog.Col, a, b int) float64 {
	if c.Miss.Get(a) || c.Miss.Get(b) || c.Num[a] != c.Num[b] {
		return math.NaN()
	}
	return c.Num[a]
}

// DeriveSym computes a symbol-plane derived feature for the ordered
// record pair (a, b); MissingSym means missing. Calling it for a
// numeric-plane feature is a programming error.
func (d *Deriver) DeriveSym(cols *joblog.Columns, a, b, derivedIdx int) uint64 {
	e := d.mapping[derivedIdx]
	c := cols.Col(e.rawIdx)
	switch e.kind {
	case IsSame:
		return IsSameSym(c, a, b)
	case Compare:
		return CompareSym(c, a, b)
	case Diff:
		return DiffSymOf(c, a, b)
	case Base:
		if c.Miss.Get(a) || c.Miss.Get(b) {
			return MissingSym
		}
		if c.HasAlien && (c.Alien(a) || c.Alien(b)) {
			v := derive(c.Kind, cols.Value(a, e.rawIdx), cols.Value(b, e.rawIdx), Base)
			if v.Kind == joblog.Nominal {
				if id, ok := cols.Intern().Lookup(v.Str); ok {
					return uint64(id)
				}
			}
			return MissingSym
		}
		if c.Kind != joblog.Nominal {
			panic("features: DeriveSym on a numeric base feature")
		}
		return BaseSymFast(c, a, b)
	default:
		panic("features: bad kind")
	}
}

// ValueCol is Value over the columnar view: the boxed derived value of
// one feature of the pair (a, b), identical to Value on the underlying
// records.
func (d *Deriver) ValueCol(cols *joblog.Columns, a, b, derivedIdx int) joblog.Value {
	e := d.mapping[derivedIdx]
	if d.numOff[derivedIdx] >= 0 {
		x := d.DeriveNum(cols, a, b, derivedIdx)
		if math.IsNaN(x) {
			// Distinguish true missing from an alien-pair value that the
			// plane cannot carry: re-derive boxed for alien fields.
			if c := cols.Col(e.rawIdx); c.HasAlien {
				return derive(c.Kind, cols.Value(a, e.rawIdx), cols.Value(b, e.rawIdx), e.kind)
			}
			return joblog.None()
		}
		return joblog.Num(x)
	}
	sym := d.DeriveSym(cols, a, b, derivedIdx)
	if sym == MissingSym {
		if c := cols.Col(e.rawIdx); c.HasAlien && e.kind == Base {
			return derive(c.Kind, cols.Value(a, e.rawIdx), cols.Value(b, e.rawIdx), e.kind)
		}
		return joblog.None()
	}
	return joblog.Str(d.SymString(cols.Intern(), derivedIdx, sym))
}

// SymString decodes a symbol of the derived feature's column back to the
// string the row engine would have produced.
func (d *Deriver) SymString(in *joblog.Intern, derivedIdx int, sym uint64) string {
	switch d.mapping[derivedIdx].kind {
	case IsSame:
		if sym == SymT {
			return "T"
		}
		return "F"
	case Compare:
		switch sym {
		case SymLT:
			return "LT"
		case SymGT:
			return "GT"
		default:
			return "SIM"
		}
	case Diff:
		return "(" + in.Str(uint32(sym>>32)) + "→" + in.Str(uint32(sym)) + ")"
	default: // Base (nominal)
		return in.Str(uint32(sym))
	}
}

// SymsForString returns the symbols of the derived feature's column that
// decode to s — the compile-time inverse of SymString. The result is
// empty when no pair value can ever render s (an equality against it can
// then only match via the not-equal operator). Diff constants may map to
// several symbols when the rendered string is ambiguous (a raw value
// containing the arrow); matching any of them is exactly string equality
// on the rendered form.
func (d *Deriver) SymsForString(in *joblog.Intern, derivedIdx int, s string) []uint64 {
	switch d.mapping[derivedIdx].kind {
	case IsSame:
		switch s {
		case "T":
			return []uint64{SymT}
		case "F":
			return []uint64{SymF}
		}
		return nil
	case Compare:
		switch s {
		case "LT":
			return []uint64{SymLT}
		case "SIM":
			return []uint64{SymSIM}
		case "GT":
			return []uint64{SymGT}
		}
		return nil
	case Diff:
		return diffSymsFor(in, s)
	default: // Base (nominal)
		if id, ok := in.Lookup(s); ok {
			return []uint64{uint64(id)}
		}
		return nil
	}
}

// diffSymsFor enumerates every (x, y) split of a "(x→y)" constant whose
// parts are both interned. "(va→vb)" == s holds for a pair exactly when
// (internID(va), internID(vb)) is in the returned set.
func diffSymsFor(in *joblog.Intern, s string) []uint64 {
	const arrow = "→"
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return nil
	}
	inner := s[1 : len(s)-1]
	var out []uint64
	for k := 0; k+len(arrow) <= len(inner); k++ {
		if inner[k:k+len(arrow)] != arrow {
			continue
		}
		x, okx := in.Lookup(inner[:k])
		y, oky := in.Lookup(inner[k+len(arrow):])
		if okx && oky {
			out = append(out, DiffSym(x, y))
		}
	}
	return out
}

// PairMatrix is a flat, feature-major materialization of the derived
// feature vectors of a set of pairs: each numeric base feature is one
// contiguous float column (Num[numOff*N+row]) and each nominal feature one
// contiguous packed-symbol column (Sym[symOff*N+row]), so a per-feature
// scan reads N adjacent cells. Columns are written by FillPairs and read
// by offset; no boxed values are created.
type PairMatrix struct {
	D   *Deriver
	N   int
	Num []float64
	Sym []uint64
}

// NewPairMatrix allocates a matrix for n pairs.
func (d *Deriver) NewPairMatrix(n int) *PairMatrix {
	return &PairMatrix{
		D:   d,
		N:   n,
		Num: make([]float64, n*d.numW),
		Sym: make([]uint64, n*d.symW),
	}
}

// ReshapePairMatrix readies m — a matrix of any deriver and size, or the
// zero value — for n pairs of d's features, keeping its planes when they
// are large enough. Cells hold whatever the planes held before: FillPairs
// writes every cell of the rows it is given, and every row in [0, n) must
// be filled before it is read.
func (d *Deriver) ReshapePairMatrix(m *PairMatrix, n int) {
	m.D, m.N = d, n
	if cap(m.Num) < n*d.numW {
		m.Num = make([]float64, n*d.numW)
	}
	if cap(m.Sym) < n*d.symW {
		m.Sym = make([]uint64, n*d.symW)
	}
	m.Num, m.Sym = m.Num[:n*d.numW], m.Sym[:n*d.symW]
}

// NumCol returns the numeric column at NumOffset(feature), one cell per
// row.
func (m *PairMatrix) NumCol(numOff int) []float64 {
	return m.Num[numOff*m.N : (numOff+1)*m.N : (numOff+1)*m.N]
}

// SymCol returns the symbol column at SymOffset(feature), one cell per
// row.
func (m *PairMatrix) SymCol(symOff int) []uint64 {
	return m.Sym[symOff*m.N : (symOff+1)*m.N : (symOff+1)*m.N]
}

// NumAt reads the numeric plane at (row, NumOffset(feature)).
func (m *PairMatrix) NumAt(row, numOff int) float64 { return m.Num[numOff*m.N+row] }

// SymAt reads the symbol plane at (row, SymOffset(feature)).
func (m *PairMatrix) SymAt(row, symOff int) uint64 { return m.Sym[symOff*m.N+row] }

// Fill materializes the derived vector of the record pair (a, b) into
// row: FillPairs on one pair. It is safe to call concurrently for
// distinct rows.
func (m *PairMatrix) Fill(cols *joblog.Columns, row, a, b int) {
	ai, bi := [1]int{a}, [1]int{b}
	m.FillPairs(cols, row, ai[:], bi[:])
}

// FillPairs materializes the derived vectors of the record pairs
// (ai[k], bi[k]) into rows lo+k — the allocation-free bulk engine behind
// the pair matrix. The loop is raw-field-major: one raw column's plane,
// missing bits and destination columns are hoisted, then every pair
// gathers from that one plane, so it stays cache-resident however many
// rows the log has; each raw cell is read once and fans out to the whole
// derived family, and the 10% similarity band is computed once for both
// issame and compare. Concurrent calls over disjoint row ranges are safe.
func (m *PairMatrix) FillPairs(cols *joblog.Columns, lo int, ai, bi []int) {
	n := len(ai)
	bi = bi[:n]
	d := m.D
	nan := math.NaN()
	for pi := range d.rawPlans {
		p := &d.rawPlans[pi]
		c := cols.Col(p.rawIdx)
		miss := c.Miss
		isSame := m.SymCol(p.isSameOff)[lo : lo+n]
		var compare, diff, baseSym []uint64
		var baseNum []float64
		if p.compareOff >= 0 {
			compare = m.SymCol(p.compareOff)[lo : lo+n]
			diff = m.SymCol(p.diffOff)[lo : lo+n]
		}
		if p.baseNumOff >= 0 {
			baseNum = m.NumCol(p.baseNumOff)[lo : lo+n]
		} else if p.baseSymOff >= 0 {
			baseSym = m.SymCol(p.baseSymOff)[lo : lo+n]
		}
		for k, a := range ai {
			b := bi[k]
			if miss.Get(a) || miss.Get(b) {
				isSame[k] = MissingSym
				if compare != nil {
					compare[k] = MissingSym
					diff[k] = MissingSym
				}
				if baseNum != nil {
					baseNum[k] = nan
				} else if baseSym != nil {
					baseSym[k] = MissingSym
				}
				continue
			}
			if c.Kind == joblog.Numeric {
				na, nb := c.Num[a], c.Num[b]
				sim := stats.Similar(na, nb)
				if sim {
					isSame[k] = SymT
				} else {
					isSame[k] = SymF
				}
				if compare != nil {
					switch {
					case sim:
						compare[k] = SymSIM
					case na < nb:
						compare[k] = SymLT
					default:
						compare[k] = SymGT
					}
					diff[k] = MissingSym
				}
				if baseNum != nil {
					switch {
					case c.HasAlien && (c.Alien(a) || c.Alien(b)):
						baseNum[k] = d.DeriveNum(cols, a, b, p.baseIdx)
					case na == nb:
						baseNum[k] = na
					default:
						baseNum[k] = nan
					}
				}
				continue
			}
			sa, sb := c.Sym[a], c.Sym[b]
			if sa == sb {
				isSame[k] = SymT
			} else {
				isSame[k] = SymF
			}
			if compare != nil {
				compare[k] = MissingSym
				diff[k] = DiffSym(sa, sb)
			}
			if baseSym != nil {
				switch {
				case c.HasAlien && (c.Alien(a) || c.Alien(b)):
					baseSym[k] = d.DeriveSym(cols, a, b, p.baseIdx)
				case sa == sb:
					baseSym[k] = uint64(sa)
				default:
					baseSym[k] = MissingSym
				}
			}
		}
	}
}
