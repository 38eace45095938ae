package pxql

// Predicate compilation for the columnar engine: a Predicate is lowered
// once per (deriver, columns) pair into a flat list of compiled atoms
// over column indices and interned symbols, so the per-pair evaluation —
// the innermost loop of pair enumeration and explanation evaluation — is
// pure integer/float compares with zero map lookups and zero string
// comparisons.
//
// Compilation resolves, per atom:
//
//   - the derived feature index (one schema map lookup, at compile time);
//   - kind admissibility (a nominal constant can never satisfy a numeric
//     feature and vice versa; ordered operators never hold on nominal
//     features; a missing constant satisfies nothing) — inadmissible
//     atoms compile to a constant-false opcode, mirroring Atom.Eval;
//   - the constant's interned symbol set for nominal features. Constants
//     absent from the log's intern table get an empty set: equality can
//     then never hold, while not-equal holds for every present value.
//     Diff constants may map to several packed symbols when the rendered
//     "(x→y)" form is ambiguous; membership in the set is exactly string
//     equality on the rendered form.
//
// Raw fields carrying kind-mismatched cells (Col.HasAlien) fall back to
// the boxed evaluator for exactness; the opcode is chosen at compile
// time, so clean logs never pay for the check.
//
// The same goes for everything else a block loop would otherwise decide
// per pair: the NumKernel / SymKernel of the atom, and — for issame and
// compare atoms over a column with no missing cell — the family, the
// column kind and the missing test themselves. Those atoms compile to
// caCode: a gather-compare over the raw plane yielding the pair's column
// code, looked up in a truth table. A Tile shares that code between the
// clauses a walk pushes through one pair block.
//
// Compiled evaluation is verified against the interpreted EvalPair by
// unit tests and a fuzz target (fuzz_test.go): for every predicate and
// log the two must agree on every ordered pair.

import (
	"math/bits"
	"slices"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/stats"
)

type caKind uint8

const (
	caFalse caKind = iota // atom can never hold
	caNum                 // numeric-plane compare
	caSym                 // symbol-plane equality / inequality
	caCode                // issame / compare over a column with no missing cell
	caAlien               // boxed fallback for kind-mismatched fields
)

type compiledAtom struct {
	kind       caKind
	derivedIdx int
	col        *joblog.Col       // raw column the feature derives from
	family     features.PairKind // caSym: which derived family
	op         Op                // caNum
	num        float64           // caNum constant
	numKern    NumKernel         // caNum block kernel
	ne         bool              // caSym: operator is !=
	syms       []uint64          // caSym: symbols rendering the constant
	symKern    SymKernel         // caSym block kernel
	truth      uint64            // caCode: bit c set when the atom holds on column code c
	atom       Atom              // caAlien fallback
}

// CompiledPredicate is a Predicate lowered against one deriver and one
// columnar log view. It is immutable and safe for concurrent use.
type CompiledPredicate struct {
	d     *features.Deriver
	cols  *joblog.Columns
	atoms []compiledAtom
}

// Compile lowers the predicate against the deriver's derived schema and
// the log view's intern table. The result evaluates ordered record pairs
// by index, byte-identically to EvalPair over the same records.
func (p Predicate) Compile(d *features.Deriver, cols *joblog.Columns) *CompiledPredicate {
	cp := &CompiledPredicate{d: d, cols: cols, atoms: make([]compiledAtom, 0, len(p))}
	for _, a := range p {
		cp.atoms = append(cp.atoms, compileAtom(a, d, cols))
	}
	return cp
}

func compileAtom(a Atom, d *features.Deriver, cols *joblog.Columns) compiledAtom {
	i, ok := d.Schema().Index(a.Feature)
	if !ok || a.Value.IsMissing() {
		return compiledAtom{kind: caFalse}
	}
	rawIdx, family := d.RawOf(i)
	col := cols.Col(rawIdx)
	if col.HasAlien {
		return compiledAtom{kind: caAlien, derivedIdx: i, atom: a}
	}
	if d.NumOffset(i) >= 0 {
		// Numeric derived feature: only a numeric constant can match
		// (Atom.Eval rejects mixed-kind comparisons outright).
		if a.Value.Kind != joblog.Numeric {
			return compiledAtom{kind: caFalse}
		}
		return compiledAtom{kind: caNum, derivedIdx: i, col: col, op: a.Op, num: a.Value.Num,
			numKern: NewNumKernel(a.Op, a.Value.Num)}
	}
	// Symbol plane: present derived values are nominal, so only nominal
	// constants under = or != can ever match.
	if a.Value.Kind != joblog.Nominal || (a.Op != OpEq && a.Op != OpNe) {
		return compiledAtom{kind: caFalse}
	}
	ne := a.Op == OpNe
	syms := d.SymsForString(cols.Intern(), i, a.Value.Str)
	coded := family == features.IsSame || family == features.Compare && col.Kind == joblog.Numeric
	if coded && !col.Miss.Any() {
		return compiledAtom{kind: caCode, col: col, truth: codeTruth(family, col.Kind, syms, ne)}
	}
	return compiledAtom{
		kind:       caSym,
		derivedIdx: i,
		col:        col,
		family:     family,
		ne:         ne,
		syms:       syms,
		symKern:    NewSymKernel(syms, ne),
	}
}

// pairCode computes the column code of the pair (a, b): what two present
// cells of a raw column derive, in the column's own terms —
// features.SymLT / SymSIM / SymGT for a numeric column (issame is T
// exactly on SIM, so the compare code answers both families) and
// SymF / SymT for a nominal one. It depends on the pair and the column
// alone, which is what lets every atom over the column read one computed
// code through its own truth table.
func pairCode(c *joblog.Col, a, b int) uint64 {
	if c.Kind == joblog.Numeric {
		return features.CompareNum(c.Num[a], c.Num[b])
	}
	return b2u(c.Sym[a] == c.Sym[b])
}

// codeTruth lowers an issame or compare atom to its truth table over the
// column codes: bit c is set when the symbol the family derives from
// code c satisfies the atom (EvalSymSet, as the generic loop applies it).
func codeTruth(family features.PairKind, kind joblog.Kind, syms []uint64, ne bool) uint64 {
	var truth uint64
	for code := uint64(features.SymLT); code <= features.SymGT; code++ {
		sym := code
		if family == features.IsSame && kind == joblog.Numeric {
			sym = b2u(code == features.SymSIM)
		}
		if EvalSymSet(syms, sym, ne) {
			truth |= 1 << code
		}
	}
	return truth
}

// NumOpMasks decomposes a comparison operator into its trichotomy masks:
// the operator holds for present values x, c exactly when
//
//	B2u(x < c)&lt | B2u(x == c)&eq | B2u(x > c)&gt
//
// is 1. This is EvalNumOp in branchless form — the batched kernels (both
// the compiled pair kernels here and core's matrix-row kernels) build
// selection words from it, and because NaN fails all three comparisons a
// missing (NaN-encoded) value satisfies no operator, != included, without
// a separate presence check. The one comparison the masks cannot express
// is a NaN constant under != (every present value passes, yet all three
// compares fail); kernels add a hoisted presence term for that case.
func NumOpMasks(op Op) (lt, eq, gt uint64) {
	switch op {
	case OpEq:
		return 0, 1, 0
	case OpNe:
		return 1, 0, 1
	case OpLt:
		return 1, 0, 0
	case OpLe:
		return 1, 1, 0
	case OpGt:
		return 0, 0, 1
	case OpGe:
		return 0, 1, 1
	default:
		return 0, 0, 0
	}
}

// NumKernel is the branchless numeric word-builder shared by every
// batched kernel (the compiled pair kernels here and core's matrix-row
// kernels): hoist the operator into masks once with NewNumKernel, then
// Bit computes the atom's selection bit for one plane value. Keeping the
// bit construction in one place means the NaN exactness rules can never
// drift between the two engines.
type NumKernel struct {
	cst        float64
	lt, eq, gt uint64
}

// NewNumKernel builds the kernel for one operator and constant. The NaN
// constant under != (every present value passes) is folded away here:
// it is exactly the full trichotomy lt=eq=gt=1 against any non-NaN
// constant — one of the three compares holds for every present x and
// none for NaN — so Bit itself stays a three-compare expression small
// enough for the inliner.
func NewNumKernel(op Op, cst float64) NumKernel {
	lt, eq, gt := NumOpMasks(op)
	if op == OpNe && cst != cst {
		return NumKernel{cst: 0, lt: 1, eq: 1, gt: 1}
	}
	return NumKernel{cst: cst, lt: lt, eq: eq, gt: gt}
}

// Bit returns 1 exactly when the atom holds on plane value x (NaN = a
// missing value, which satisfies no operator) — EvalNumOp plus the
// missing check, as a branchless 0/1 word.
func (k NumKernel) Bit(x float64) uint64 {
	return b2u(x < k.cst)&k.lt | b2u(x == k.cst)&k.eq | b2u(x > k.cst)&k.gt
}

// SymKernel is NumKernel's symbol-plane counterpart: a branchless
// membership test of a derived symbol against the constant's symbol set,
// specialised for the ubiquitous one-symbol case. Missing symbols
// satisfy nothing; under != an empty set matches every present symbol —
// both fall out of the same present mask.
type SymKernel struct {
	syms      []uint64
	single    uint64
	useSingle bool
	neU       uint64
}

// NewSymKernel builds the kernel for one symbol set and direction.
func NewSymKernel(syms []uint64, ne bool) SymKernel {
	k := SymKernel{syms: syms, neU: b2u(ne), useSingle: len(syms) == 1}
	if k.useSingle {
		k.single = syms[0]
	}
	return k
}

// Bit returns 1 exactly when the atom holds on derived symbol s —
// EvalSymSet plus the missing check, as a branchless 0/1 word.
func (k SymKernel) Bit(s uint64) uint64 {
	var match uint64
	if k.useSingle {
		match = b2u(s == k.single)
	} else {
		for _, sym := range k.syms {
			match |= b2u(s == sym)
		}
	}
	return (match ^ k.neU) & b2u(s != features.MissingSym)
}

func b2u(b bool) uint64 { return bitset.B2u(b) }

// EvalNumOp applies a comparison operator to a present (non-missing)
// numeric feature value x and constant c — the single scalar core shared
// by compiled predicates and the core package's matrix-row atoms, so the
// operator semantics can never drift between the two.
func EvalNumOp(op Op, x, c float64) bool {
	switch op {
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

// EvalSymSet evaluates an equality (ne false) or inequality (ne true)
// of a present symbol against the constant's symbol set — the shared
// nominal counterpart of EvalNumOp. An empty set means the constant can
// render no pair value: equality never holds, inequality always does.
func EvalSymSet(syms []uint64, s uint64, ne bool) bool {
	match := false
	for _, sym := range syms {
		if s == sym {
			match = true
			break
		}
	}
	return match != ne
}

// EvalPair evaluates the predicate against the derived features of the
// ordered record pair (a, b), addressed by index into the compiled
// columns. Exactly equivalent to Predicate.EvalPair on the boxed records.
func (cp *CompiledPredicate) EvalPair(a, b int) bool {
	for i := range cp.atoms {
		if !cp.atoms[i].eval(cp.d, cp.cols, a, b) {
			return false
		}
	}
	return true
}

func (ca *compiledAtom) eval(d *features.Deriver, cols *joblog.Columns, a, b int) bool {
	switch ca.kind {
	case caNum:
		x := features.BaseNumFast(ca.col, a, b)
		if x != x { // NaN: missing satisfies no operator
			return false
		}
		return EvalNumOp(ca.op, x, ca.num)
	case caSym:
		var s uint64
		switch ca.family {
		case features.IsSame:
			s = features.IsSameSym(ca.col, a, b)
		case features.Compare:
			s = features.CompareSym(ca.col, a, b)
		case features.Diff:
			s = features.DiffSymOf(ca.col, a, b)
		default: // features.Base, nominal plane
			s = features.BaseSymFast(ca.col, a, b)
		}
		if s == features.MissingSym {
			return false
		}
		return EvalSymSet(ca.syms, s, ca.ne)
	case caCode:
		return ca.truth>>pairCode(ca.col, a, b)&1 != 0
	case caAlien:
		return ca.atom.Eval(d.ValueCol(cols, a, b, ca.derivedIdx))
	default: // caFalse
		return false
	}
}

// Tile is one pair block — pair k is (ai[k], bi[k]) — as a walk pushes
// its clauses through it, plus the walk's scratch of column code planes:
// when two or more caCode atoms of those clauses read one raw column
// (OBSERVED duration_compare = GT beside EXPECTED duration_compare =
// SIM), the column's code is computed once per pair per tile, by the
// first atom to need it, and the others read it. Codes are filled a
// selection word at a time and only for words still live, so a selective
// clause in front bounds the work here as it does everywhere else. The
// zero Tile is ready to Bind; a Tile belongs to one goroutine at a time.
type Tile struct {
	ai, bi []int
	planes []codePlane
}

type codePlane struct {
	col   *joblog.Col
	codes []uint8
	have  bitset.Set // bit w: codes of selection word w are filled for this tile
}

// Bind readies the tile for a walk that pushes preds through blocks of at
// most maxPairs pairs: one code plane for every column two or more of
// their code atoms read. A tile that has served an earlier walk keeps
// its buffers, so a pooled one binds without allocating.
func (t *Tile) Bind(maxPairs int, preds ...*CompiledPredicate) {
	old := t.planes
	t.planes = t.planes[:0]
	var once []*joblog.Col // columns one code atom reads so far
	for _, cp := range preds {
		for i := range cp.atoms {
			ca := &cp.atoms[i]
			switch {
			case ca.kind != caCode || t.plane(ca.col) != nil:
			case slices.Contains(once, ca.col):
				var pl codePlane
				if n := len(t.planes); n < len(old) {
					pl = old[n]
				}
				if len(pl.codes) < maxPairs {
					pl.codes = make([]uint8, maxPairs)
					pl.have = bitset.Make(bitset.Words(maxPairs))
				}
				pl.col = ca.col
				t.planes = append(t.planes, pl)
			default:
				once = append(once, ca.col)
			}
		}
	}
}

// Reset points the tile at its next pair block.
func (t *Tile) Reset(ai, bi []int) {
	t.ai, t.bi = ai, bi[:len(ai)]
	for i := range t.planes {
		t.planes[i].have.Zero()
	}
}

// plane returns the shared code plane of column c, nil when fewer than
// two atoms of the walk read it.
func (t *Tile) plane(c *joblog.Col) *codePlane {
	for i := range t.planes {
		if t.planes[i].col == c {
			return &t.planes[i]
		}
	}
	return nil
}

// EvalBlock fills sel with the predicate's selection bitmap over a pair
// block: bit k of sel reports EvalPair(ai[k], bi[k]). sel must hold at
// least bitset.Words(len(ai)) words; tail bits of the last covered word
// are left clear. Each atom scans the block once with a branch-light
// compare loop, so a conjunction costs O(atoms × pairs) plane reads —
// the batched counterpart of calling EvalPair per pair, byte-identical
// to it bit for bit.
func (cp *CompiledPredicate) EvalBlock(ai, bi []int, sel bitset.Set) {
	sel = sel[:bitset.Words(len(ai))]
	sel.Ones(len(ai))
	cp.AndBlock(ai, bi, sel)
}

// AndBlock intersects sel with the predicate's selection bitmap over the
// pair block (sel &= eval(block)) — AndTile on a block no other clause
// shares.
func (cp *CompiledPredicate) AndBlock(ai, bi []int, sel bitset.Set) {
	cp.AndTile(&Tile{ai: ai, bi: bi[:len(ai)]}, sel)
}

// AndTile intersects sel with the predicate's selection bitmap over the
// tile's pair block (sel &= eval(block)) — the pushdown step of batched
// composition: callers seed sel with an outer selection (all ones, or
// the despite clause's bitmap) and push further clauses through it.
// Words already zero are skipped entirely, so a selective outer clause
// bounds the work of every clause behind it.
func (cp *CompiledPredicate) AndTile(t *Tile, sel bitset.Set) {
	sel = sel[:bitset.Words(len(t.ai))]
	for i := range cp.atoms {
		cp.atoms[i].andTile(cp.d, cp.cols, t, sel)
	}
}

// andTile intersects acc with the atom's selection bits over the tile's
// pair block. Everything but the gather is decided at compile time;
// selection words are built with branchless mask arithmetic and ANDed in
// word-wise, preserving clear tail bits.
func (ca *compiledAtom) andTile(d *features.Deriver, cols *joblog.Columns, t *Tile, acc bitset.Set) {
	ai, bi := t.ai, t.bi
	n := len(ai)
	switch ca.kind {
	case caNum:
		c := ca.col
		kern := ca.numKern
		for w, base := 0, 0; base < n; w, base = w+1, base+64 {
			m := acc[w]
			if m == 0 {
				continue
			}
			end := min(base+64, n)
			var selW uint64
			for k := base; k < end; k++ {
				selW |= kern.Bit(features.BaseNumFast(c, ai[k], bi[k])) << uint(k-base)
			}
			acc[w] = m & selW
		}
	case caSym:
		// The generic symbol loop: diff and nominal base atoms, and
		// issame / compare over a column with missing cells.
		c := ca.col
		family := ca.family
		kern := ca.symKern
		for w, base := 0, 0; base < n; w, base = w+1, base+64 {
			m := acc[w]
			if m == 0 {
				continue
			}
			end := min(base+64, n)
			var selW uint64
			for k := base; k < end; k++ {
				var s uint64
				switch family {
				case features.IsSame:
					s = features.IsSameSym(c, ai[k], bi[k])
				case features.Compare:
					s = features.CompareSym(c, ai[k], bi[k])
				case features.Diff:
					s = features.DiffSymOf(c, ai[k], bi[k])
				default: // features.Base, nominal plane
					s = features.BaseSymFast(c, ai[k], bi[k])
				}
				selW |= kern.Bit(s) << uint(k-base)
			}
			acc[w] = m & selW
		}
	case caCode:
		ca.andTileCode(t, acc)
	case caAlien:
		// Exactness over speed: the boxed fallback evaluates per pair, but
		// only for bits still live in the accumulator.
		for w, base := 0, 0; base < n; w, base = w+1, base+64 {
			m := acc[w]
			if m == 0 {
				continue
			}
			for live := m; live != 0; live &= live - 1 {
				k := bits.TrailingZeros64(live)
				if !ca.atom.Eval(d.ValueCol(cols, ai[base+k], bi[base+k], ca.derivedIdx)) {
					m &^= 1 << uint(k)
				}
			}
			acc[w] = m
		}
	default: // caFalse
		acc.Zero()
	}
}

// andTileCode is the block kernel of issame and compare atoms over a
// column with no missing cell: per live selection word, the pairs' column
// codes — read from the tile's shared plane when the column has one,
// filling it on first touch, else gathered into a stack buffer — and
// then one truth-table lookup per pair.
func (ca *compiledAtom) andTileCode(t *Tile, acc bitset.Set) {
	ai, bi := t.ai, t.bi
	n := len(ai)
	pl := t.plane(ca.col)
	truth := ca.truth
	var buf [64]uint8
	for w, base := 0, 0; base < n; w, base = w+1, base+64 {
		m := acc[w]
		if m == 0 {
			continue
		}
		end := min(base+64, n)
		codes := buf[:end-base]
		if pl != nil {
			codes = pl.codes[base:end]
		}
		if pl == nil || !pl.have.Get(w) {
			fillCodes(ca.col, ai[base:end], bi[base:end], codes)
			if pl != nil {
				pl.have.SetBit(w)
			}
		}
		var selW uint64
		for k, c := range codes {
			selW |= (truth >> c & 1) << uint(k)
		}
		acc[w] = m & selW
	}
}

// fillCodes gathers the column codes of the pairs (ai[k], bi[k]) — the
// kind test is hoisted, and with no missing cell in the column the loop
// is two plane reads and one compare. The numeric arm is
// features.CompareNum spelled out: that is past the inliner's budget, and
// a call per pair cost the tile a tenth of its time.
func fillCodes(c *joblog.Col, ai, bi []int, codes []uint8) {
	bi, codes = bi[:len(ai)], codes[:len(ai)]
	if c.Kind == joblog.Numeric {
		num := c.Num
		for k, a := range ai {
			x, y := num[a], num[bi[k]]
			code := uint8(features.SymGT)
			if stats.Similar(x, y) {
				code = features.SymSIM
			} else if x < y {
				code = features.SymLT
			}
			codes[k] = code
		}
		return
	}
	sym := c.Sym
	for k, a := range ai {
		codes[k] = uint8(b2u(sym[a] == sym[bi[k]]))
	}
}
