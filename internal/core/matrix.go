package core

// matrixAtom is a generated atom lowered for evaluation against
// pair-matrix rows: one column or code-plane offset plus the comparison,
// no boxed values, no map lookups. Algorithm 1 lowers each round's
// winner to narrow the working set; every other candidate is scored from
// its feature's per-value class counts and never lowered.
//
// Generated atoms always agree in kind with their derived column (the
// constant is a threshold over that column or one of its observed
// values), so the lowering never needs the interpreter's mixed-kind
// rejection paths; an atom that cannot match any cell lowers to a
// constant-false evaluator all the same.
//
// Beside the per-row eval, each atom has a batched kernel (fillRange)
// that fills a selection bitmap, one bit per pair, a word at a time: an
// issame atom, or a compare atom over a numeric raw, from its code
// planes; a base or diff atom from the planes of the values it selects
// in its column's value index, or, past the index's plane cap, by
// scanning the column with branchless mask arithmetic.

import (
	"math/bits"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

type matrixAtom struct {
	feat    int // the derived feature
	numOff  int // >= 0: numeric plane comparison
	symOff  int // >= 0: symbol plane equality/inequality
	codeOff int // >= 0: code-plane equality/inequality
	op      pxql.Op
	num     float64
	ne      bool
	syms    []uint64
	codes   features.CodeSet
}

// newMatrixAtom lowers an atom over the derived feature featIdx for
// matrix-row evaluation, byte-identical to Atom.Eval on the boxed vector
// the row engine would have materialized.
func newMatrixAtom(d *features.Deriver, in *joblog.Intern, featIdx int, a pxql.Atom) matrixAtom {
	ma := matrixAtom{feat: featIdx, numOff: -1, symOff: -1, codeOff: -1}
	if a.Value.IsMissing() {
		return ma // matches nothing; every offset stays -1
	}
	if off := d.NumOffset(featIdx); off >= 0 {
		if a.Value.Kind != joblog.Numeric {
			return ma
		}
		ma.numOff, ma.op, ma.num = off, a.Op, a.Value.Num
		return ma
	}
	if a.Value.Kind != joblog.Nominal || (a.Op != pxql.OpEq && a.Op != pxql.OpNe) {
		return ma
	}
	ma.ne = a.Op == pxql.OpNe
	syms := d.SymsForString(in, featIdx, a.Value.Str)
	if off := d.CodeOffset(featIdx); off >= 0 {
		ma.codeOff, ma.codes = off, d.CodeSetOf(featIdx, syms)
		return ma
	}
	// A family without storage (diff of a numeric raw, compare of a
	// nominal one) is missing on every pair: symOff stays -1.
	ma.symOff, ma.syms = d.SymOffset(featIdx), syms
	return ma
}

// eval evaluates the atom against one matrix row: the reference
// fillRange and the candidates' supports are tested against. Missing
// cells satisfy no operator, mirroring Atom.Eval; the scalar comparison
// cores are pxql's, shared with the compiled predicate evaluator.
func (ma *matrixAtom) eval(m *features.PairMatrix, row int) bool {
	if ma.numOff >= 0 {
		x := m.NumAt(row, ma.numOff)
		if x != x { // NaN: missing
			return false
		}
		return pxql.EvalNumOp(ma.op, x, ma.num)
	}
	if ma.symOff >= 0 {
		s := m.SymAt(row, ma.symOff)
		if s == features.MissingSym {
			return false
		}
		return pxql.EvalSymSet(ma.syms, s, ma.ne)
	}
	if ma.codeOff >= 0 {
		c := m.CodeAt(row, ma.codeOff)
		return c != features.MissingSym && ma.codes.Has(c) != ma.ne
	}
	return false
}

// fillRange writes the atom's selection bits into sel (bit i of sel is
// matrix row i) on the words where live has a bit, leaving the tail bits
// of the last word clear; a word with no live bit is skipped and keeps
// whatever sel held there, which a consumer masking by (a subset of) live
// never observes. The operator dispatch and kernel construction are
// hoisted out of the loops; selection words are built with pxql's shared
// NumKernel/SymKernel bit constructors — the same exactness rules as the
// compiled pair kernels, so the bits equal eval row for row by
// construction. A code-plane atom builds each word from the planes' words
// at once: the OR of its codes' parts, or present minus that for !=; so
// does an atom over a base or diff column whose value index holds a plane
// per value: the OR of the planes of the values it selects (valueMask).
func (ma *matrixAtom) fillRange(m *features.PairMatrix, sel, live bitset.Set) {
	n := m.N
	var vi *features.ValueIndex
	if ma.numOff >= 0 || ma.symOff >= 0 {
		vi = m.Values(ma.feat)
	}
	switch {
	case vi != nil && vi.Planar():
		mask := ma.valueMask(vi)
		for w := range bitset.Words(n) {
			if live[w] == 0 {
				continue
			}
			var selW uint64
			for b := mask; b != 0; b &= b - 1 {
				selW |= vi.PlaneWord(bits.TrailingZeros64(b), w)
			}
			sel[w] = selW
		}
	case ma.numOff >= 0:
		kern := pxql.NewNumKernel(ma.op, ma.num)
		col := m.NumCol(ma.numOff)
		for w := range bitset.Words(n) {
			if live[w] == 0 {
				continue
			}
			var selW uint64
			for i, x := range col[w<<6 : min(w<<6+64, n)] {
				selW |= kern.Bit(x) << uint(i)
			}
			sel[w] = selW
		}
	case ma.symOff >= 0:
		kern := pxql.NewSymKernel(ma.syms, ma.ne)
		col := m.SymCol(ma.symOff)
		for w := range bitset.Words(n) {
			if live[w] == 0 {
				continue
			}
			var selW uint64
			for i, s := range col[w<<6 : min(w<<6+64, n)] {
				selW |= kern.Bit(s) << uint(i)
			}
			sel[w] = selW
		}
	case ma.codeOff >= 0:
		present, sim, lt := m.CodePlanes(ma.codeOff)
		for w := range bitset.Words(n) {
			if live[w] == 0 {
				continue
			}
			selW := ma.codes.Word(present[w], sim[w], lt[w])
			if ma.ne {
				selW = present[w] &^ selW
			}
			sel[w] = selW
		}
	default: // constant false
		for w := range bitset.Words(n) {
			if live[w] != 0 {
				sel[w] = 0
			}
		}
	}
}

// valueMask is the set of values of a planar value index the atom
// selects, bit k for value k: the numeric values its kernel accepts, or
// the value its symbols render (every symbol rendering a string maps to
// its one value), complemented over the present values for !=.
func (ma *matrixAtom) valueMask(vi *features.ValueIndex) uint64 {
	var mask uint64
	if ma.numOff >= 0 {
		kern := pxql.NewNumKernel(ma.op, ma.num)
		for k, x := range vi.Nums() {
			mask |= kern.Bit(x) << uint(k)
		}
		return mask
	}
	for _, s := range ma.syms {
		if k := vi.Of(s); k >= 0 {
			mask |= 1 << uint(k)
		}
	}
	if ma.ne {
		mask = ^mask & (^uint64(0) >> (64 - uint(vi.Len())))
	}
	return mask
}
