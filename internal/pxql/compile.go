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
// Every atom reads the raw planes alone: they hold every cell exactly
// (see joblog/columns.go), so no atom needs a boxed fallback.
//
// Compilation also decides everything a block loop would otherwise
// decide per pair: the NumKernel / SymKernel of the atom, and for every
// issame atom and every compare atom over a numeric raw, the family and
// the constant themselves. Those atoms compile to caCode: a code set over the
// pair's present/SIM/LT bits, which features.CodeWord and SameWord build
// 64 pairs at a time with the kernels the pair matrix is filled by, so the
// walk and the matrix share one encoding; a column without a missing cell
// takes the kernel that loads no missing bit, here as in the fill. A Tile
// shares those bits between the clauses a walk pushes through one pair
// block.
//
// Compiled evaluation is verified against the interpreted EvalPair by
// unit tests and a fuzz target (fuzz_test.go): for every predicate and
// log the two must agree on every ordered pair.

import (
	"slices"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
)

type caKind uint8

const (
	caFalse caKind = iota // atom can never hold
	caNum                 // numeric-plane compare
	caSym                 // diff / nominal base symbol equality / inequality
	caCode                // issame, or compare over a numeric raw: code planes
)

// compiledAtom is one atom of a compiled predicate: its opcode, the raw
// column it reads, and everything its block kernel would otherwise look
// up per pair. A caCode atom also records, once at compile time, the
// column's missing bits — nil when the view holds no missing cell in it,
// so its tiles run the code kernels that load no missing bit.
type compiledAtom struct {
	kind    caKind
	col     *joblog.Col       // raw column the feature derives from
	family  features.PairKind // caSym: which derived family
	numKern NumKernel         // caNum block kernel
	ne      bool              // caCode: operator is !=
	symKern SymKernel         // caSym block kernel
	codes   features.CodeSet  // caCode: codes rendering the constant
	miss    bitset.Set        // caCode: col.Miss, or nil when no cell is missing
}

// CompiledPredicate is a Predicate lowered against one deriver and one
// columnar log view. It is immutable and safe for concurrent use.
type CompiledPredicate struct {
	atoms []compiledAtom
}

// Compile lowers the predicate against the deriver's derived schema and
// the log view's intern table. The result evaluates blocks of ordered
// record pairs by index, bit for bit as Predicate.EvalPair does over the
// same records.
func (p Predicate) Compile(d *features.Deriver, cols *joblog.Columns) *CompiledPredicate {
	cp := &CompiledPredicate{atoms: make([]compiledAtom, 0, len(p))}
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
	if d.NumOffset(i) >= 0 {
		// Numeric derived feature: only a numeric constant can match
		// (Atom.Eval rejects mixed-kind comparisons outright).
		if a.Value.Kind != joblog.Numeric {
			return compiledAtom{kind: caFalse}
		}
		return compiledAtom{kind: caNum, col: col, numKern: NewNumKernel(a.Op, a.Value.Num)}
	}
	// Symbol plane: present derived values are nominal, so only nominal
	// constants under = or != can ever match.
	if a.Value.Kind != joblog.Nominal || (a.Op != OpEq && a.Op != OpNe) {
		return compiledAtom{kind: caFalse}
	}
	ne := a.Op == OpNe
	syms := d.SymsForString(cols.Intern(), i, a.Value.Str)
	switch {
	case d.CodeOffset(i) >= 0:
		ca := compiledAtom{kind: caCode, col: col, ne: ne, codes: d.CodeSetOf(i, syms)}
		if col.Miss.Any() {
			ca.miss = col.Miss
		}
		return ca
	case d.SymOffset(i) < 0:
		// Compare of a nominal raw, diff of a numeric one: missing on every
		// pair.
		return compiledAtom{kind: caFalse}
	}
	return compiledAtom{kind: caSym, col: col, family: family, symKern: NewSymKernel(syms, ne)}
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
// numeric feature value x and constant c — the scalar reference of
// NumKernel, and what the core package's matrix-row atoms evaluate, so
// the operator semantics can never drift between the two.
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

// Tile is one pair block — pair k is (ai[k], bi[k]) — as a walk pushes
// its clauses through it, plus the walk's scratch of shared code planes:
// when two or more caCode atoms of those clauses read one raw column
// (OBSERVED duration_compare = GT beside EXPECTED duration_compare =
// SIM), the column's present/SIM/LT words are computed once per tile, by
// the first atom to need them, and the others read them. Words are
// filled a selection word at a time and only for words still live, so a
// selective clause in front bounds the work here as it does everywhere
// else. The zero Tile is ready to Bind; a Tile belongs to one goroutine
// at a time.
type Tile struct {
	ai, bi []int
	planes []codePlane
}

type codePlane struct {
	col   *joblog.Col
	words []uint64   // present, SIM, LT of selection word w at 3w, 3w+1, 3w+2
	have  bitset.Set // bit w: the words of selection word w are filled for this tile
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
				if w := bitset.Words(maxPairs); len(pl.words) < 3*w {
					pl.words = make([]uint64, 3*w)
					pl.have = bitset.Make(w)
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
// block: bit k of sel reports whether the pair (ai[k], bi[k]) satisfies
// the predicate. sel must hold at least bitset.Words(len(ai)) words;
// tail bits of the last covered word are left clear. Each atom scans the
// block once with a branch-light compare loop, so a conjunction costs
// O(atoms × pairs) plane reads.
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
		cp.atoms[i].andTile(t, sel)
	}
}

// andTile intersects acc with the atom's selection bits over the tile's
// pair block. Everything but the gather is decided at compile time;
// selection words are built with branchless mask arithmetic and ANDed in
// word-wise, preserving clear tail bits.
func (ca *compiledAtom) andTile(t *Tile, acc bitset.Set) {
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
				selW |= kern.Bit(features.BaseNum(c, ai[k], bi[k])) << uint(k-base)
			}
			acc[w] = m & selW
		}
	case caSym:
		c := ca.col
		diff := ca.family == features.Diff
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
				if diff {
					s = features.DiffSymOf(c, ai[k], bi[k])
				} else { // features.Base, nominal plane
					s = features.BaseSym(c, ai[k], bi[k])
				}
				selW |= kern.Bit(s) << uint(k-base)
			}
			acc[w] = m & selW
		}
	case caCode:
		ca.andTileCode(t, acc)
	default: // caFalse
		acc.Zero()
	}
}

// andTileCode is the block kernel of caCode atoms: per live selection
// word, the pairs' present/SIM/LT words — read from the tile's shared
// plane when the column has one, filling it on first touch, else built
// in registers — and then the code set's selection, present minus it for
// !=.
func (ca *compiledAtom) andTileCode(t *Tile, acc bitset.Set) {
	ai, bi := t.ai, t.bi
	n := len(ai)
	pl := t.plane(ca.col)
	for w, base := 0, 0; base < n; w, base = w+1, base+64 {
		m := acc[w]
		if m == 0 {
			continue
		}
		var present, sim, lt uint64
		if pl != nil && pl.have.Get(w) {
			present, sim, lt = pl.words[3*w], pl.words[3*w+1], pl.words[3*w+2]
		} else {
			end := min(base+64, n)
			present, sim, lt = ca.codeWord(ai[base:end], bi[base:end])
			if pl != nil {
				pl.words[3*w], pl.words[3*w+1], pl.words[3*w+2] = present, sim, lt
				pl.have.SetBit(w)
			}
		}
		sel := ca.codes.Word(present, sim, lt)
		if ca.ne {
			sel = present &^ sel
		}
		acc[w] = m & sel
	}
}

// codeWord returns the code-plane words of up to 64 pairs of the atom's
// column, as the pair matrix stores them: a nominal column's SIM is
// equality and its LT is empty.
func (ca *compiledAtom) codeWord(ai, bi []int) (present, sim, lt uint64) {
	if c := ca.col; c.Kind == joblog.Numeric {
		return features.CodeWord(c.Num, ca.miss, ai, bi)
	}
	present, sim = features.SameWord(ca.col.Sym, ca.miss, ai, bi)
	return present, sim, 0
}
