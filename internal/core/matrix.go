package core

// matrixAtom is a candidate predicate lowered for evaluation against
// pair-matrix rows: one plane offset plus the comparison, no boxed
// values, no map lookups. Algorithm 1's working-set filtering, candidate
// scoring and per-prefix diagnostics all run on these.
//
// Generated atoms always agree in kind with their derived column (the
// constant is a threshold over that column or one of its observed
// values), so the lowering never needs the interpreter's mixed-kind
// rejection paths; an atom that cannot match any cell lowers to a
// constant-false evaluator all the same.
//
// Beyond the per-row eval, each atom has a batched kernel (fillRange)
// that scans its matrix column and fills a selection bitmap — one bit per
// pair, built with branchless mask arithmetic. bitmapCache memoizes one
// bitmap per distinct atom over the whole matrix, filled tile-by-tile on
// the worker pool so planes stay cache-resident; every candidate clause
// is then composed by word-AND + popcount instead of re-walking pairs.

import (
	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
)

type matrixAtom struct {
	numOff int // >= 0: numeric plane comparison
	symOff int // >= 0: symbol plane equality/inequality
	op     pxql.Op
	num    float64
	ne     bool
	syms   []uint64
}

// newMatrixAtom lowers an atom over the derived feature featIdx for
// matrix-row evaluation, byte-identical to Atom.Eval on the boxed vector
// the row engine would have materialized.
func newMatrixAtom(d *features.Deriver, in *joblog.Intern, featIdx int, a pxql.Atom) matrixAtom {
	ma := matrixAtom{numOff: -1, symOff: -1}
	if a.Value.IsMissing() {
		return ma // matches nothing; both offsets stay -1
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
	ma.symOff = d.SymOffset(featIdx)
	ma.ne = a.Op == pxql.OpNe
	ma.syms = d.SymsForString(in, featIdx, a.Value.Str)
	return ma
}

// eval evaluates the atom against one matrix row. Missing cells satisfy
// no operator, mirroring Atom.Eval; the scalar comparison cores are
// pxql's, shared with the compiled predicate evaluator.
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
	return false
}

// evalPrefix evaluates the conjunction of the first w lowered atoms on a
// row. Kept as the reference the bitmap compose path is tested against.
func evalPrefix(mas []matrixAtom, w int, m *features.PairMatrix, row int) bool {
	for k := 0; k < w; k++ {
		if !mas[k].eval(m, row) {
			return false
		}
	}
	return true
}

// fillRange writes the atom's selection bits for matrix rows [lo, hi)
// into sel (bit i of sel is row i; lo must be word-aligned). Whole words
// are overwritten, with tail bits beyond hi left clear, so disjoint
// tiles can be filled concurrently. A non-nil live mask restricts the
// fill: words with no live bit are skipped and keep their current value
// (zero in a fresh bitmap) — bits in live words are exact, which is all
// a consumer masking by (a subset of) live can observe. The operator
// dispatch and kernel construction are hoisted out of the loops;
// selection words are built with pxql's shared NumKernel/SymKernel bit
// constructors — the same exactness rules as the compiled pair kernels,
// so the bits equal eval row for row by construction.
func (ma *matrixAtom) fillRange(m *features.PairMatrix, lo, hi int, sel, live bitset.Set) {
	switch {
	case ma.numOff >= 0:
		kern := pxql.NewNumKernel(ma.op, ma.num)
		col := m.NumCol(ma.numOff)
		for w, base := lo>>6, lo; base < hi; w, base = w+1, base+64 {
			if live != nil && live[w] == 0 {
				continue
			}
			var selW uint64
			for i, x := range col[base:min(base+64, hi)] {
				selW |= kern.Bit(x) << uint(i)
			}
			sel[w] = selW
		}
	case ma.symOff >= 0:
		kern := pxql.NewSymKernel(ma.syms, ma.ne)
		col := m.SymCol(ma.symOff)
		for w, base := lo>>6, lo; base < hi; w, base = w+1, base+64 {
			if live != nil && live[w] == 0 {
				continue
			}
			var selW uint64
			for i, s := range col[base:min(base+64, hi)] {
				selW |= kern.Bit(s) << uint(i)
			}
			sel[w] = selW
		}
	default: // constant false
		for w, base := lo>>6, lo; base < hi; w, base = w+1, base+64 {
			if live != nil && live[w] == 0 {
				continue
			}
			sel[w] = 0
		}
	}
}

// rowTile is the tile height of batched matrix scans: 4096 rows = 64
// bitmap words per atom, so a tile's slice of every plane column and the
// bitmap words it produces stay cache-resident while several atoms scan
// it.
const rowTile = 4096

// atomKey identifies an atom for bitmap memoization: feature, operator
// and constant — exactly the identity containsAtom deduplicates clauses
// by.
type atomKey struct {
	feature string
	op      pxql.Op
	kind    joblog.Kind
	num     float64
	nanNum  bool
	str     string
}

func keyOf(a pxql.Atom) atomKey {
	k := atomKey{feature: a.Feature, op: a.Op, kind: a.Value.Kind, num: a.Value.Num, str: a.Value.Str}
	if k.num != k.num {
		// NaN never compares equal to itself, so it would defeat the map
		// lookup; every NaN constant behaves identically under every
		// operator, so one canonical key is exact.
		k.num, k.nanNum = 0, true
	}
	return k
}

// bitmapCache memoizes per-atom selection bitmaps over one pair matrix,
// so candidate scoring and working-set filtering evaluate each distinct
// atom at most once per matrix and compose with word operations.
//
// Cached bitmaps are exact only on words that were live in the working
// set when they were filled (dead words stay zero — see getAll), which
// is sound for every cache consumer because the working set shrinks
// monotonically: scoring and filtering always mask by the current
// working-set bitmap, a subset of the live words at fill time. Code
// needing full-matrix bits (the prefix diagnostics) must fill its own
// bitmap with fillRange instead of reading the cache.
type bitmapCache struct {
	m       *features.PairMatrix
	workers int
	cache   map[atomKey]bitset.Set
	// counts memoizes each cached bitmap's popcount at fill time. The
	// fill is restricted to the then-live working-set words and the
	// working set shrinks monotonically, so the stored count is an upper
	// bound on any later AndCount against the current working set — a
	// zero means the candidate can never select a pair again.
	counts map[atomKey]int
}

func newBitmapCache(m *features.PairMatrix, workers int) *bitmapCache {
	return &bitmapCache{m: m, workers: workers,
		cache: make(map[atomKey]bitset.Set), counts: make(map[atomKey]int)}
}

// getAll returns the bitmaps of a candidate batch plus each bitmap's
// fill-time popcount (an upper bound on the candidate's satisfied count,
// see counts), filling the cache misses tile-parallel: the unit of work
// is (tile, atom), consecutive units share a tile, so one tile's plane
// rows are scanned by every missing atom while hot. Words with no live
// bit in the working set are skipped (left zero) — once a selective
// clause collapses the working set, losing candidates cost plane reads
// only where pairs remain. Scheduling never affects the bits — each unit
// writes a disjoint word range of its own atom's bitmap.
func (bc *bitmapCache) getAll(cands []candidate, live bitset.Set) ([]bitset.Set, []int) {
	sels := make([]bitset.Set, len(cands))
	ubs := make([]int, len(cands))
	var missKey []atomKey
	var missSel []bitset.Set
	var missMA []matrixAtom
	missAt := make([]int, 0, len(cands))
	for ci := range cands {
		k := keyOf(cands[ci].atom)
		if sel, ok := bc.cache[k]; ok {
			sels[ci] = sel
			ubs[ci] = bc.counts[k]
			continue
		}
		sel := bitset.Make(bc.m.N)
		bc.cache[k] = sel
		sels[ci] = sel
		missKey = append(missKey, k)
		missSel = append(missSel, sel)
		missMA = append(missMA, cands[ci].ma)
		missAt = append(missAt, ci)
	}
	if len(missSel) == 0 {
		return sels, ubs
	}
	tiles := (bc.m.N + rowTile - 1) / rowTile
	par.Do(tiles*len(missSel), bc.workers, func(u int) {
		t, k := u/len(missSel), u%len(missSel)
		lo := t * rowTile
		hi := min(lo+rowTile, bc.m.N)
		missMA[k].fillRange(bc.m, lo, hi, missSel[k], live)
	})
	for k := range missSel {
		n := missSel[k].Count()
		bc.counts[missKey[k]] = n
		ubs[missAt[k]] = n
	}
	return sels, ubs
}
