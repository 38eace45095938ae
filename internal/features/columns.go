package features

// Columnar derivation: the same Table 1 pair features as derive(), but
// computed straight from a joblog.Columns view into flat planes instead
// of boxed joblog.Value structs.
//
// Derived features split across three stores by what they can hold:
//
//   - numeric derived features (base features of numeric raws) live in a
//     float64 plane; NaN encodes missing. The sentinel is exact: a base
//     feature is present only when the two raw values compare equal with
//     ==, which no NaN ever does, so a present base value is never NaN.
//   - every raw's issame feature, and a numeric raw's compare feature,
//     share one triple of bit planes per raw, one bit per pair: present
//     (neither cell missing), SIM and LT. For a numeric raw SIM is present
//     and inside the 10% band, and LT is present, not SIM, first below
//     second; for a nominal raw SIM is present and equal, and LT is always
//     empty. Issame T is SIM and F is present ∧ ¬SIM; compare LT is LT,
//     SIM is SIM and GT is present ∧ ¬SIM ∧ ¬LT — GT also when a NaN is
//     involved, exactly as CompareNum. codeWord and sameWord build these
//     bits 64 pairs at a time; the fills and the walk's compiled atoms
//     (CodeWord, SameWord) both call them, so there is one encoding.
//   - the other nominal derived features live in a uint64 symbol plane
//     holding a packed, per-column encoding: base features carry the raw
//     value's intern ID, and diff features pack the two intern IDs as
//     x<<32|y. Symbols are only ever compared within one derived column,
//     so the family-local encodings cannot collide; MissingSym (all ones)
//     encodes missing and cannot alias a diff pack because intern IDs stay
//     below 1<<31.
//
// Diff of a numeric raw and compare of a nominal raw are missing on every
// pair, so they get no storage at all: every offset of theirs is -1.
//
// A PairMatrix is the feature-major materialization of the three stores
// for a set of pairs: one fill writes every derived feature of a run of
// pairs, one raw column at a time, with zero allocation, and scoring code
// reads contiguous columns and planes by offset.
//
// The raw planes hold every cell exactly (see joblog/columns.go), so
// every derived feature reads them alone and matches derive() on the
// boxed records; no family has a boxed fallback.

import (
	"fmt"
	"math"
	"math/bits"

	"perfxplain/internal/bitset"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/stats"
)

// MissingSym is the missing sentinel of the symbol plane.
const MissingSym = ^uint64(0)

// Symbol codes of the issame and compare families. The compare codes
// are also the code-plane codes of issame: T is SIM, F is LT or GT.
const (
	SymF = 0 // issame F
	SymT = 1 // issame T

	SymLT  = 0 // compare LT
	SymSIM = 1 // compare SIM
	SymGT  = 2 // compare GT
)

// DiffSym packs a diff feature's two raw intern IDs.
func DiffSym(x, y uint32) uint64 { return uint64(x)<<32 | uint64(y) }

// rawPlan is one raw field's slice of the layout: the offsets of its
// derived features, -1 when a family is absent at the deriver's level or
// has no storage. The fills walk this plan so each raw cell is read
// once, not once per derived family; the raw's code-plane triple is its
// rawIdx.
type rawPlan struct {
	rawIdx     int
	diffOff    int // symbol plane; -1 below Level2 and for numeric raws
	baseNumOff int // numeric plane; -1 unless Level3 and numeric raw
	baseSymOff int // symbol plane; -1 unless Level3 and nominal raw
	// The raw's derived features by family, -1 where the family is absent
	// at the deriver's level: what a fill mask selects the plan's writes
	// by (see masked).
	sameIdx, cmpIdx, diffIdx, baseIdx int
}

// masked returns the plan cut down to the derived features in want (nil
// wants every feature): an unwanted diff or base column gets offset -1,
// and ok is false when the raw has no wanted feature at all, so its code
// triple need not be written either. A raw with a wanted feature keeps
// its triple, which its issame and compare share.
func (p rawPlan) masked(want bitset.Set) (q rawPlan, ok bool) {
	if want == nil {
		return p, true
	}
	in := func(i int) bool { return i >= 0 && want.Get(i) }
	if !in(p.diffIdx) {
		p.diffOff = -1
	}
	if !in(p.baseIdx) {
		p.baseNumOff, p.baseSymOff = -1, -1
	}
	return p, in(p.sameIdx) || in(p.cmpIdx) || p.diffOff >= 0 || p.baseNumOff >= 0 || p.baseSymOff >= 0
}

// buildPlanes precomputes, for every derived feature, where it is stored
// — a numeric column, a symbol column or a code-plane triple, at most one
// of numOff/symOff/codeOff >= 0 — plus the per-raw-field materialization
// plan.
func (d *Deriver) buildPlanes() {
	d.numOff = make([]int, len(d.mapping))
	d.symOff = make([]int, len(d.mapping))
	d.codeOff = make([]int, len(d.mapping))
	plans := make([]rawPlan, d.raw.Len())
	for r := range plans {
		plans[r] = rawPlan{rawIdx: r, diffOff: -1, baseNumOff: -1, baseSymOff: -1,
			sameIdx: -1, cmpIdx: -1, diffIdx: -1, baseIdx: -1}
	}
	for i, e := range d.mapping {
		d.numOff[i], d.symOff[i], d.codeOff[i] = -1, -1, -1
		p := &plans[e.rawIdx]
		switch e.kind {
		case IsSame:
			p.sameIdx = i
		case Compare:
			p.cmpIdx = i
		case Diff:
			p.diffIdx = i
		case Base:
			p.baseIdx = i
		}
		numeric := d.raw.Field(e.rawIdx).Kind == joblog.Numeric
		switch {
		case e.kind == IsSame || numeric && e.kind == Compare:
			d.codeOff[i] = e.rawIdx
		case numeric && e.kind == Base:
			d.numOff[i] = d.numW
			d.numW++
			p.baseNumOff = d.numOff[i]
		case numeric || e.kind == Compare:
			// Diff of a numeric raw, compare of a nominal one: missing on
			// every pair, nothing to store.
		default:
			d.symOff[i] = d.symW
			d.symW++
			if e.kind == Diff {
				p.diffOff = d.symOff[i]
			} else {
				p.baseSymOff = d.symOff[i]
			}
		}
	}
	d.rawPlans = plans
}

// NumOffset returns the numeric-plane offset of a derived feature, or -1
// when it has no numeric column.
func (d *Deriver) NumOffset(derivedIdx int) int { return d.numOff[derivedIdx] }

// SymOffset returns the symbol-plane offset of a derived feature, or -1
// when it has no symbol column.
func (d *Deriver) SymOffset(derivedIdx int) int { return d.symOff[derivedIdx] }

// CodeOffset returns the code-plane triple of an issame feature or of a
// numeric raw's compare feature, or -1 for every other feature.
func (d *Deriver) CodeOffset(derivedIdx int) int { return d.codeOff[derivedIdx] }

// CodeSet is a set of compare codes, bit c for code c (SymLT, SymSIM,
// SymGT): the three disjoint parts a code-plane triple splits its present
// pairs into.
type CodeSet uint8

// CodeSetOf returns the codes of the pairs whose issame or compare
// feature derivedIdx holds one of syms: issame T is SIM, F is LT or GT
// (a nominal raw's LT plane is empty, so its F is GT alone).
func (d *Deriver) CodeSetOf(derivedIdx int, syms []uint64) CodeSet {
	isSame := d.mapping[derivedIdx].kind == IsSame
	var cs CodeSet
	for _, s := range syms {
		switch {
		case isSame && s == SymT:
			cs |= 1 << SymSIM
		case isSame && s == SymF:
			cs |= 1<<SymLT | 1<<SymGT
		case !isSame && s <= SymGT:
			cs |= 1 << s
		}
	}
	return cs
}

// Has reports whether code c is in the set.
func (cs CodeSet) Has(c uint64) bool { return c <= SymGT && cs>>c&1 != 0 }

// Word selects, from one word of a triple's present, SIM and LT planes,
// the pairs whose code is in the set — mask arithmetic, no branch.
func (cs CodeSet) Word(present, sim, lt uint64) uint64 {
	inLT := -(uint64(cs) >> SymLT & 1)
	inSIM := -(uint64(cs) >> SymSIM & 1)
	inGT := -(uint64(cs) >> SymGT & 1)
	return lt&inLT | sim&inSIM | present&^(sim|lt)&inGT
}

// isSameSym computes the issame symbol for the pair (a, b) of one raw
// column: T/F, or MissingSym.
func isSameSym(c *joblog.Col, a, b int) uint64 {
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

// compareSym computes the compare symbol for the pair (a, b) of one raw
// column: LT/SIM/GT for numeric raws, MissingSym otherwise.
func compareSym(c *joblog.Col, a, b int) uint64 {
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

// CodeWord returns the code-plane bits of the pairs (a[k], b[k]) of a
// numeric raw column's cells num, pair k at bit k: present, SIM and LT as
// the file comment defines them. miss holds the cells' missing bits, and
// is nil when no cell is missing, which takes the kernel that loads none.
// It takes at most 64 pairs.
func CodeWord(num []float64, miss bitset.Set, a, b []int) (present, sim, lt uint64) {
	return codeWord(num, miss, a, b, nil)
}

// SameWord returns the code-plane bits of the pairs (a[k], b[k]) of a
// nominal raw column's cells sym, pair k at bit k: present, and present
// with equal symbols (the SIM plane; LT is empty). miss is as for
// CodeWord. It takes at most 64 pairs.
func SameWord(sym []uint32, miss bitset.Set, a, b []int) (present, equal uint64) {
	return sameWord(sym, miss, a, b)
}

// codeWord is the kernel behind CodeWord and the numeric fill: per pair
// of cells num[a[k]], num[b[k]], with mask arithmetic and no
// data-dependent branch, the 10% band is computed once for both
// families, a missing cell (a bit of miss) clears every bit of its pair
// and a NaN cell falls to GT as in CompareNum. A non-nil base receives
// base[k], the pair's shared value or NaN. A nil miss — no cell is
// missing — hands the run to codeWordFull, which loads no missing bit.
func codeWord(num []float64, miss bitset.Set, a, b []int, base []float64) (present, sim, lt uint64) {
	if miss == nil {
		return codeWordFull(num, a, b, base)
	}
	b = b[:len(a)]
	nan := math.Float64bits(math.NaN())
	for k, i := range a {
		j := b[k]
		x, y := num[i], num[j]
		pr := ^(miss[i>>6]>>(uint(i)&63) | miss[j>>6]>>(uint(j)&63)) & 1
		s := bitset.B2u(stats.Similar(x, y)) & pr
		at := uint(k) & 63
		present |= pr << at
		sim |= s << at
		lt |= bitset.B2u(x < y) &^ s & pr << at
		if base != nil {
			keep := bitset.B2u(x == y) & pr
			base[k] = math.Float64frombits(math.Float64bits(x)&-keep | nan&(keep-1))
		}
	}
	return present, sim, lt
}

// codeWordFull is codeWord over cells none of which is missing: every
// pair is present, so the present word is the run's mask, and the base
// values, when wanted, are a second pass over cells the first just read.
func codeWordFull(num []float64, a, b []int, base []float64) (present, sim, lt uint64) {
	b = b[:len(a)]
	for k, i := range a {
		x, y := num[i], num[b[k]]
		s := bitset.B2u(stats.Similar(x, y))
		at := uint(k) & 63
		sim |= s << at
		lt |= bitset.B2u(x < y) &^ s << at
	}
	if base != nil {
		base = base[:len(a)]
		nan := math.Float64bits(math.NaN())
		for k, i := range a {
			x := num[i]
			keep := bitset.B2u(x == num[b[k]])
			base[k] = math.Float64frombits(math.Float64bits(x)&-keep | nan&(keep-1))
		}
	}
	return runMask(len(a)), sim, lt
}

// runMask is the low n bits set, n in [0, 64] (a shift by 64 leaves 0).
func runMask(n int) uint64 { return ^uint64(0) >> (64 - uint(n)) }

// sameWord is the kernel behind SameWord and the nominal fill: per pair of
// cells sym[a[k]], sym[b[k]], presence and equality under presence. A nil
// miss takes the loop that loads no missing bit.
func sameWord(sym []uint32, miss bitset.Set, a, b []int) (present, equal uint64) {
	b = b[:len(a)]
	if miss == nil {
		for k, i := range a {
			equal |= bitset.B2u(sym[i] == sym[b[k]]) << (uint(k) & 63)
		}
		return runMask(len(a)), equal
	}
	for k, i := range a {
		j := b[k]
		pr := ^(miss[i>>6]>>(uint(i)&63) | miss[j>>6]>>(uint(j)&63)) & 1
		at := uint(k) & 63
		present |= pr << at
		equal |= bitset.B2u(sym[i] == sym[j]) & pr << at
	}
	return present, equal
}

// DiffSymOf computes the packed diff symbol for the pair (a, b) of one
// raw column: x<<32|y for nominal raws, MissingSym otherwise.
func DiffSymOf(c *joblog.Col, a, b int) uint64 {
	if c.Kind != joblog.Nominal || c.Miss.Get(a) || c.Miss.Get(b) {
		return MissingSym
	}
	return DiffSym(c.Sym[a], c.Sym[b])
}

// BaseSym computes the base symbol of a nominal raw column for the pair
// (a, b): the shared intern ID when the two agree, MissingSym otherwise.
func BaseSym(c *joblog.Col, a, b int) uint64 {
	if c.Miss.Get(a) || c.Miss.Get(b) || c.Sym[a] != c.Sym[b] {
		return MissingSym
	}
	return uint64(c.Sym[a])
}

// BaseNum computes the base value of a numeric raw column for the pair
// (a, b) — the shared value when the two agree exactly, NaN otherwise.
func BaseNum(c *joblog.Col, a, b int) float64 {
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
		return isSameSym(c, a, b)
	case Compare:
		return compareSym(c, a, b)
	case Diff:
		return DiffSymOf(c, a, b)
	case Base:
		if c.Kind != joblog.Nominal {
			panic("features: DeriveSym on a numeric base feature")
		}
		return BaseSym(c, a, b)
	default:
		panic("features: bad kind")
	}
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
// contiguous float column (Num[numOff*N+row]), each symbol feature one
// contiguous packed-symbol column (Sym[symOff*N+row]), and each raw's
// issame and compare share one triple of bit planes in Code (see
// CodePlanes), so a per-feature scan reads N adjacent cells or N/64
// adjacent words. The stores are written by the fills and read by
// offset; no boxed values are created.
type PairMatrix struct {
	D    *Deriver
	N    int
	Num  []float64
	Sym  []uint64
	Code []uint64

	// g is FillSample's gather scratch; it rides with the matrix, so a
	// recycled matrix fills without allocating.
	g gather
}

// NewPairMatrix allocates a matrix for n pairs.
func (d *Deriver) NewPairMatrix(n int) *PairMatrix {
	m := new(PairMatrix)
	d.ReshapePairMatrix(m, n)
	return m
}

// ReshapePairMatrix readies m — a matrix of any deriver and size, or the
// zero value — for n pairs of d's features, keeping its stores when they
// are large enough. Column cells hold whatever they held before and the
// code planes are cleared: the fills write every cell and bit of the rows
// they are given, and every row in [0, n) must be filled before it is
// read.
func (d *Deriver) ReshapePairMatrix(m *PairMatrix, n int) {
	m.D, m.N = d, n
	m.Num = resize(m.Num, n*d.numW)
	m.Sym = resize(m.Sym, n*d.symW)
	m.Code = resize(m.Code, 3*d.raw.Len()*bitset.Words(n))
	clear(m.Code)
}

// resize returns s with length n, reallocated only when its capacity is
// short; the cells it keeps are not cleared.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
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

// CodePlanes returns the present, SIM and LT planes of the triple at
// CodeOffset(feature), one bit per row (see the file comment for what
// they encode).
func (m *PairMatrix) CodePlanes(codeOff int) (present, sim, lt bitset.Set) {
	w := bitset.Words(m.N)
	t := m.Code[3*codeOff*w : 3*(codeOff+1)*w : 3*(codeOff+1)*w]
	return t[:w:w], t[w : 2*w : 2*w], t[2*w:]
}

// NumAt reads the numeric plane at (row, NumOffset(feature)).
func (m *PairMatrix) NumAt(row, numOff int) float64 { return m.Num[numOff*m.N+row] }

// SymAt reads the symbol plane at (row, SymOffset(feature)).
func (m *PairMatrix) SymAt(row, symOff int) uint64 { return m.Sym[symOff*m.N+row] }

// CodeAt reads the compare code of row in the triple at
// CodeOffset(feature): SymLT, SymSIM or SymGT, or MissingSym.
func (m *PairMatrix) CodeAt(row, codeOff int) uint64 {
	present, sim, lt := m.CodePlanes(codeOff)
	switch {
	case !present.Get(row):
		return MissingSym
	case sim.Get(row):
		return SymSIM
	case lt.Get(row):
		return SymLT
	default:
		return SymGT
	}
}

// Fill materializes the derived vector of the record pair (a, b) into
// row: a fill of one pair, reading the view directly. It rewrites the
// row's bit of every code plane in place, so it must not run beside any
// other fill of the matrix.
func (m *PairMatrix) Fill(cols *joblog.Columns, row, a, b int) {
	ai, bi := [1]int{a}, [1]int{b}
	m.fill(cols, fillRun{lo: row, la: ai[:], lb: bi[:]})
}

// FillPairs materializes the derived vectors of the record pairs
// (ai[k], bi[k]) into rows lo+k, reading the view directly — the
// reference FillSample is held to, and allocation-free. lo must be a
// multiple of 64, so a run owns every code-plane word it writes up to
// its last row, and concurrent calls over disjoint runs are safe.
func (m *PairMatrix) FillPairs(cols *joblog.Columns, lo int, ai, bi []int) {
	if lo&63 != 0 {
		panic(fmt.Sprintf("features: FillPairs at row %d, not a multiple of 64", lo))
	}
	m.fill(cols, fillRun{lo: lo, la: ai, lb: bi})
}

// FillSample fills the rows of m, sized for len(ai) pairs, with the
// derived vectors of the record pairs (ai[k], bi[k]), bit-identical to
// FillPairs in every column it writes. want selects the derived features
// to write (nil: all of them): a raw with no wanted feature is skipped,
// and a raw with one writes its code triple and only its wanted diff and
// base columns; every other column keeps what it held, and a skipped
// triple stays clear (a race build poisons both; see PoisonSkipped).
// Each raw column is one work unit, run on up to workers goroutines: it
// gathers the cells the pairs read from that column into its worker's
// buffer (see gather), then fills the column's code planes and wanted
// columns from them while they are still in the core's cache — with the
// kernels that load no missing bit when none of the gathered cells is
// missing. Every cell and word has one writer, so the result is the same
// at every worker count. Once m's stores and gather are large enough it
// allocates nothing per pair.
func (m *PairMatrix) FillSample(cols *joblog.Columns, ai, bi []int, want bitset.Set, workers int) {
	n := len(ai)
	if n != m.N || len(bi) != n {
		panic(fmt.Sprintf("features: FillSample of %d/%d pairs into a %d-row matrix", n, len(bi), m.N))
	}
	g, plans := &m.g, m.D.rawPlans
	g.load(cols.Len(), ai, bi, par.Workers(len(plans), workers))
	run := fillRun{la: g.la, lb: g.lb}
	par.DoWorkers(len(plans), workers, func(w, i int) {
		p, ok := plans[i].masked(want)
		if !ok {
			return
		}
		c := cols.Col(p.rawIdx)
		m.fillRaw(&p, c.Kind, g.column(c, &g.bufs[w]), run)
	})
	if poisonSkipped && want != nil {
		m.PoisonSkipped(want)
	}
}

// PoisonSkipped overwrites every column and triple that FillSample under
// want skips with values a scorer would split on — alternating cells,
// and triples whose SIM and LT split every row — so that a read of a
// skipped column changes an answer. Tests call it to prove nothing reads
// them; under the race detector every masked fill does (poison_race.go).
func (m *PairMatrix) PoisonSkipped(want bitset.Set) {
	for i := range m.D.rawPlans {
		p := &m.D.rawPlans[i]
		q, ok := p.masked(want)
		if !ok {
			present, sim, lt := m.CodePlanes(p.rawIdx)
			present.Ones(m.N)
			for w := range present {
				sim[w], lt[w] = present[w]&0x5555555555555555, present[w]&0xaaaaaaaaaaaaaaaa
			}
		}
		if p.baseNumOff >= 0 && q.baseNumOff < 0 {
			col := m.NumCol(p.baseNumOff)
			for row := range col {
				col[row] = float64(row & 1)
			}
		}
		for _, off := range [2][2]int{{p.diffOff, q.diffOff}, {p.baseSymOff, q.baseSymOff}} {
			if off[0] >= 0 && off[1] < 0 {
				col := m.SymCol(off[0])
				for row := range col {
					col[row] = uint64(row & 1)
				}
			}
		}
	}
}

// fillRun is one run of pairs a fill writes: pair k goes to row lo+k, and
// its records are (la[k], lb[k]) in the cells the fill reads — view rows
// for a direct fill, ranks for a gathered one.
type fillRun struct {
	lo     int
	la, lb []int
}

// rawCells is one raw column as a fill reads it: the plane of its kind
// and its missing bits, addressed by the run's la/lb. miss is nil when no
// cell the run reads is missing, which takes the kernels that load none.
type rawCells struct {
	num  []float64
	sym  []uint32
	miss bitset.Set
}

// fill writes run r's rows raw-field-major, reading the view's planes:
// one raw column's cells and destination columns are hoisted, then every
// pair of the run reads that column, each raw cell fanning out to the
// whole derived family.
func (m *PairMatrix) fill(cols *joblog.Columns, r fillRun) {
	for pi := range m.D.rawPlans {
		p := &m.D.rawPlans[pi]
		c := cols.Col(p.rawIdx)
		m.fillRaw(p, c.Kind, rawCells{num: c.Num, sym: c.Sym, miss: c.Miss}, r)
	}
}

// fillRaw writes raw p's code planes and derived columns for run r from
// src: the view's planes for a direct fill, a gather's copies otherwise.
func (m *PairMatrix) fillRaw(p *rawPlan, kind joblog.Kind, src rawCells, r fillRun) {
	if kind == joblog.Numeric {
		m.fillNumeric(p, src, r)
	} else {
		m.fillNominal(p, src, r)
	}
}

// fillNumeric writes a numeric raw's code planes and base column for run
// r: codeWord builds each word's bits, and mergeWord lays them into the
// planes under the run's mask, so bits of rows outside the run are kept.
func (m *PairMatrix) fillNumeric(p *rawPlan, src rawCells, r fillRun) {
	present, sim, lt := m.CodePlanes(p.rawIdx)
	la, lb := r.la, r.lb[:len(r.la)]
	var base []float64
	if p.baseNumOff >= 0 {
		base = m.NumCol(p.baseNumOff)[r.lo : r.lo+len(la)]
	}
	for k0 := 0; k0 < len(la); {
		row := r.lo + k0
		k1 := min(len(la), k0+64-row&63)
		var b []float64
		if base != nil {
			b = base[k0:k1]
		}
		pw, sw, lw := codeWord(src.num, src.miss, la[k0:k1], lb[k0:k1], b)
		mergeWord(present, sim, lt, row, k1-k0, pw, sw, lw)
		k0 = k1
	}
}

// mergeWord writes the bits of n pairs starting at row, built in the low
// bits of pw, sw and lw, into one word of a code-plane triple, keeping
// the word's other bits.
func mergeWord(present, sim, lt bitset.Set, row, n int, pw, sw, lw uint64) {
	w, sh := row>>6, uint(row)&63
	mask := ^uint64(0) >> (64 - uint(n)) << sh
	present[w] = present[w]&^mask | pw<<sh
	sim[w] = sim[w]&^mask | sw<<sh
	lt[w] = lt[w]&^mask | lw<<sh
}

// fillNominal writes a nominal raw's issame planes — sameWord's bits,
// merged as fillNumeric merges its own — then its diff and base columns
// for run r, each cell selected with mask arithmetic: a missing cell on
// either side ORs in MissingSym (with a nil miss, never).
func (m *PairMatrix) fillNominal(p *rawPlan, src rawCells, r fillRun) {
	present, sim, lt := m.CodePlanes(p.rawIdx)
	la, lb := r.la, r.lb[:len(r.la)]
	n := len(la)
	sym, miss := src.sym, src.miss
	for k0 := 0; k0 < n; {
		row := r.lo + k0
		k1 := min(n, k0+64-row&63)
		pw, ew := sameWord(sym, miss, la[k0:k1], lb[k0:k1])
		mergeWord(present, sim, lt, row, k1-k0, pw, ew, 0)
		k0 = k1
	}
	var diff, base []uint64
	if p.diffOff >= 0 {
		diff = m.SymCol(p.diffOff)[r.lo : r.lo+n]
	}
	if p.baseSymOff >= 0 {
		base = m.SymCol(p.baseSymOff)[r.lo : r.lo+n]
	}
	if diff == nil && base == nil {
		return
	}
	for k, a := range la {
		b := lb[k]
		sa, sb := sym[a], sym[b]
		var missing uint64 // all ones or zero
		if miss != nil {
			missing = -((miss[a>>6]>>(uint(a)&63) | miss[b>>6]>>(uint(b)&63)) & 1)
		}
		if diff != nil {
			diff[k] = DiffSym(sa, sb) | missing
		}
		if base != nil {
			base[k] = uint64(sa) | (bitset.B2u(sa == sb)&^missing - 1)
		}
	}
}

// gather is FillSample's sample-local copy of the cells a list of pairs
// reads. The distinct records are marked in a bitset over the view and
// numbered by rank (a prefix popcount), and each pair is rewritten as its
// two ranks. A work unit then copies one raw column's cells for the
// marked records into its worker's buffer in rank order — one ascending
// sweep of the column — and fills from there, so the fill's scattered
// reads land in a few kilobytes, not in the whole log's planes, and only
// one column per worker is ever resident.
type gather struct {
	mark   bitset.Set // over the view's rows
	rank   []int      // rank[w]: marked rows in the words before w
	la, lb []int      // each pair's records, as ranks
	n      int        // distinct records
	bufs   []rawCells // one column buffer per fill worker
}

// load marks and ranks the records of the pairs (ai[k], bi[k]) over a
// view of rows rows, and readies a column buffer for each of workers.
func (g *gather) load(rows int, ai, bi []int, workers int) {
	g.mark = resize(g.mark, bitset.Words(rows))
	clear(g.mark)
	for k, a := range ai {
		g.mark.SetBit(a)
		g.mark.SetBit(bi[k])
	}
	g.rank = resize(g.rank, len(g.mark))
	g.n = 0
	for w, word := range g.mark {
		g.rank[w] = g.n
		g.n += bits.OnesCount64(word)
	}
	g.la, g.lb = resize(g.la, len(ai)), resize(g.lb, len(ai))
	for k, a := range ai {
		g.la[k], g.lb[k] = g.rankOf(a), g.rankOf(bi[k])
	}
	g.bufs = resize(g.bufs, workers)
}

// rankOf returns a marked row's rank: the marked rows before it.
func (g *gather) rankOf(row int) int {
	w := row >> 6
	return g.rank[w] + bits.OnesCount64(g.mark[w]&(1<<(uint(row)&63)-1))
}

// column gathers raw column c's cells for the marked records into buf,
// growing it when short, and returns them addressed by rank — with a nil
// miss when none of them is missing. Distinct buffers may be filled
// concurrently.
func (g *gather) column(c *joblog.Col, buf *rawCells) rawCells {
	w := bitset.Words(g.n)
	buf.miss = resize(buf.miss, w)
	cells := rawCells{miss: buf.miss}
	var missing bool
	if c.Kind == joblog.Numeric {
		buf.num = resize(buf.num, g.n)
		cells.num = buf.num
		missing = gatherCells(cells.num, c.Num, c.Miss, g.mark, cells.miss)
	} else {
		buf.sym = resize(buf.sym, g.n)
		cells.sym = buf.sym
		missing = gatherCells(cells.sym, c.Sym, c.Miss, g.mark, cells.miss)
	}
	if !missing {
		cells.miss = nil
	}
	return cells
}

// gatherCells copies the marked rows' cells of plane, and their missing
// bits, into dst and miss in row order, writing every word of miss, and
// reports whether any copied cell is missing. The missing bits build up
// in a register and land a word at a time.
func gatherCells[E float64 | uint32](dst, plane []E, planeMiss, mark, miss bitset.Set) bool {
	k, mw, seen := 0, uint64(0), uint64(0)
	for w, word := range mark {
		pm := planeMiss[w]
		for ; word != 0; word &= word - 1 {
			bit := uint(bits.TrailingZeros64(word))
			dst[k] = plane[w<<6|int(bit)]
			mw |= (pm >> bit & 1) << (uint(k) & 63)
			k++
			if k&63 == 0 {
				miss[k>>6-1], seen, mw = mw, seen|mw, 0
			}
		}
	}
	if k&63 != 0 {
		miss[k>>6], seen = mw, seen|mw
	}
	return seen != 0
}
