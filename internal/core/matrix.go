package core

// matrixAtom is a candidate predicate lowered for evaluation against
// pair-matrix rows: one column or code-plane offset plus the comparison,
// no boxed values, no map lookups. Algorithm 1's working-set filtering,
// candidate scoring and per-prefix diagnostics all run on these.
//
// Generated atoms always agree in kind with their derived column (the
// constant is a threshold over that column or one of its observed
// values), so the lowering never needs the interpreter's mixed-kind
// rejection paths; an atom that cannot match any cell lowers to a
// constant-false evaluator all the same.
//
// Beyond the per-row eval, each atom has a batched kernel (fillRange)
// that fills a selection bitmap, one bit per pair, a word at a time: an
// issame atom, or a compare atom over a numeric raw, from its code
// planes; a base or diff atom from the planes of the values it selects
// in its column's value index, or, past the index's plane cap, by
// scanning the column with branchless mask arithmetic.
// bitmapCache memoizes one bitmap per distinct atom over the whole
// matrix, filled tile-by-tile on the worker pool so planes stay
// cache-resident; every candidate clause is then composed by word-AND +
// popcount instead of re-walking pairs.

import (
	"math/bits"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
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
	if ma.codeOff >= 0 {
		c := m.CodeAt(row, ma.codeOff)
		return c != features.MissingSym && ma.codes.Has(c) != ma.ne
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
// into sel (bit i of sel is row i; lo must be word-aligned, hi too unless
// it is m.N). Whole words are overwritten, with tail bits beyond hi left
// clear, so disjoint tiles can be filled concurrently. A non-nil live
// mask restricts the fill: words with no live bit are skipped and keep
// their current value (zero in a fresh bitmap) — bits in live words are
// exact, which is all a consumer masking by (a subset of) live can
// observe. The operator
// dispatch and kernel construction are hoisted out of the loops;
// selection words are built with pxql's shared NumKernel/SymKernel bit
// constructors — the same exactness rules as the compiled pair kernels,
// so the bits equal eval row for row by construction. A code-plane atom
// builds each word from the planes' words at once: the OR of its codes'
// parts, or present minus that for !=; so does an atom over a base or
// diff column whose value index holds a plane per value: the OR of the
// planes of the values it selects (valueMask).
func (ma *matrixAtom) fillRange(m *features.PairMatrix, lo, hi int, sel, live bitset.Set) {
	var vi *features.ValueIndex
	if ma.numOff >= 0 || ma.symOff >= 0 {
		vi = m.Values(ma.feat)
	}
	switch {
	case vi != nil && vi.Planar():
		mask := ma.valueMask(vi)
		for w := lo >> 6; w < bitset.Words(hi); w++ {
			if live != nil && live[w] == 0 {
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
	case ma.codeOff >= 0:
		present, sim, lt := m.CodePlanes(ma.codeOff)
		for w, base := lo>>6, lo; base < hi; w, base = w+1, base+64 {
			if live != nil && live[w] == 0 {
				continue
			}
			selW := ma.codes.Word(present[w], sim[w], lt[w])
			if ma.ne {
				selW = present[w] &^ selW
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
//
// A cache lives in a workspace and is reset per matrix: the bitmaps are
// cut from one slab and the map is cleared, not remade, so a warm
// explanation's scoring allocates nothing here.
type bitmapCache struct {
	m       *features.PairMatrix
	workers int
	cache   map[atomKey]cachedSel
	// slab backs every bitmap handed out since the last reset; used words
	// of it are taken.
	slab []uint64
	used int
	// getAll's per-call lists, kept between calls.
	sels []bitset.Set
	ubs  []int
	miss []cacheMiss
}

// cachedSel is one atom's bitmap and its popcount at fill time. The
// fill is restricted to the then-live working-set words and the working
// set shrinks monotonically, so the count is an upper bound on any later
// AndCount against the current working set — a zero means the candidate
// can never select a pair again.
type cachedSel struct {
	sel   bitset.Set
	count int
}

// cacheMiss is a candidate of one getAll batch whose atom had no bitmap.
type cacheMiss struct {
	key atomKey
	at  int // its index in the batch
}

// reset readies the cache for matrix m, forgetting every bitmap but
// keeping the slab they were cut from.
func (bc *bitmapCache) reset(m *features.PairMatrix, workers int) *bitmapCache {
	bc.m, bc.workers, bc.used = m, workers, 0
	if bc.cache == nil {
		bc.cache = make(map[atomKey]cachedSel)
	}
	clear(bc.cache)
	return bc
}

// bitmap cuts a clear bitmap of m.N bits from the slab. When the slab is
// short a larger one replaces it: the bitmaps cut so far keep the old one
// alive until the next reset, and from then on the larger slab holds a
// whole matrix's bitmaps.
func (bc *bitmapCache) bitmap() bitset.Set {
	w := bitset.Words(bc.m.N)
	if bc.used+w > len(bc.slab) {
		bc.slab = make([]uint64, max(2*len(bc.slab), 64*w))
		bc.used = 0
	}
	s := bitset.Set(bc.slab[bc.used : bc.used+w : bc.used+w])
	bc.used += w
	clear(s)
	return s
}

// getAll returns the bitmaps of a candidate batch plus each bitmap's
// fill-time popcount (an upper bound on the candidate's satisfied count,
// see cachedSel), filling the cache misses tile-parallel: the unit of
// work is (tile, atom), consecutive units share a tile, so one tile's
// plane rows are scanned by every missing atom while hot. Words with no
// live bit in the working set are skipped (left zero) — once a selective
// clause collapses the working set, losing candidates cost plane reads
// only where pairs remain. Scheduling never affects the bits — each unit
// writes a disjoint word range of its own atom's bitmap. The returned
// lists are the cache's own, valid until the next call.
func (bc *bitmapCache) getAll(cands []candidate, live bitset.Set) ([]bitset.Set, []int) {
	sels, ubs := resized(bc.sels, len(cands)), resized(bc.ubs, len(cands))
	bc.sels, bc.ubs = sels, ubs
	miss := bc.miss[:0]
	for ci := range cands {
		k := keyOf(cands[ci].atom)
		if c, ok := bc.cache[k]; ok {
			sels[ci], ubs[ci] = c.sel, c.count
			continue
		}
		sels[ci] = bc.bitmap()
		bc.cache[k] = cachedSel{sel: sels[ci]}
		miss = append(miss, cacheMiss{key: k, at: ci})
	}
	bc.miss = miss
	if len(miss) == 0 {
		return sels, ubs
	}
	tiles := (bc.m.N + rowTile - 1) / rowTile
	par.Do(tiles*len(miss), bc.workers, func(u int) {
		t, k := u/len(miss), miss[u%len(miss)].at
		lo := t * rowTile
		hi := min(lo+rowTile, bc.m.N)
		cands[k].ma.fillRange(bc.m, lo, hi, sels[k], live)
	})
	for _, ms := range miss {
		n := sels[ms.at].Count()
		bc.cache[ms.key] = cachedSel{sel: sels[ms.at], count: n}
		ubs[ms.at] = n
	}
	return sels, ubs
}
