package features

// Value indexes: every base and diff column of a pair matrix as the
// scorer reads it. A base or diff column holds few distinct values — a
// base value is one both jobs of a pair share, a diff value one of the
// few ordered pairs of a nominal raw's values — so Algorithm 1 scores it
// from per-value class counts, and a value's counts over a working set
// are two popcounts of the rows that hold it, those in the set and those
// among its positives (bitset.AndCounts). FillSample builds one index per
// column it writes, in the column's work unit while the cells are in the
// core's cache:
//
//   - the column's distinct values in the scorer's order: a numeric base
//     column's ascending by cmp.Compare, −0 before +0 (the two stay
//     apart: a working set holding both is the one case counts cannot
//     reproduce, see dtree.BestThresholdF); a symbol column's ascending
//     by rendered string, symbols that render alike (diff values around
//     a raw value holding the arrow) sharing one value;
//   - one bit plane per value while the column has at most PlaneCap
//     values, else one dense code per row, counted by array index.
//
// The index is a function of the column's cells alone, so it is the same
// at every worker count.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"

	"perfxplain/internal/bitset"
	"perfxplain/internal/joblog"
)

// PlaneCap is the most values a value index keeps a bit plane each for.
// 64 planes hold as many words as the column holds cells; a column with
// more values keeps one code per row instead.
const PlaneCap = 64

// ValueIndex is one base or diff column of a pair matrix indexed by
// value (see the file comment). It is built by FillSample and valid until
// the matrix is reshaped.
type ValueIndex struct {
	built bool
	f     int // the derived feature
	n     int // distinct values
	w     int // words per plane
	// nums are a numeric column's values, ascending; reps hold one symbol
	// of each value of a symbol column, and bySym every symbol of the
	// column with its value, ascending by symbol.
	nums  []float64
	reps  []uint64
	bySym []symValue
	// planes holds value k's rows at [k*w, (k+1)*w) when n <= PlaneCap;
	// codes holds each row's value, or -1 for a missing cell, otherwise.
	planes []uint64
	codes  []int32
	// strs are the rendered values, each filled on first use ("" is never
	// a rendering: every door refuses an empty nominal).
	strs []string
}

// symValue is one symbol of a symbol column and its value.
type symValue struct {
	sym uint64
	v   int32
}

// Len returns the number of distinct values.
func (vi *ValueIndex) Len() int { return vi.n }

// Planar reports whether the index holds a bit plane per value (else a
// code per row).
func (vi *ValueIndex) Planar() bool { return vi.n <= PlaneCap }

// Plane returns the rows holding value k, one bit per row. Planar only.
func (vi *ValueIndex) Plane(k int) bitset.Set {
	return vi.planes[k*vi.w : (k+1)*vi.w : (k+1)*vi.w]
}

// PlaneWord returns word w of value k's plane. Planar only.
func (vi *ValueIndex) PlaneWord(k, w int) uint64 { return vi.planes[k*vi.w+w] }

// Codes returns each row's value, -1 where the cell is missing. Only an
// index that is not Planar holds codes.
func (vi *ValueIndex) Codes() []int32 { return vi.codes }

// Nums returns a numeric column's values, ascending.
func (vi *ValueIndex) Nums() []float64 { return vi.nums }

// Of returns the value of a symbol column that symbol sym renders, or -1
// when no row holds it.
func (vi *ValueIndex) Of(sym uint64) int {
	i, ok := slices.BinarySearchFunc(vi.bySym, sym, func(e symValue, s uint64) int { return cmp.Compare(e.sym, s) })
	if !ok {
		return -1
	}
	return int(vi.bySym[i].v)
}

// String returns the rendering of a symbol column's value k: the string
// the row engine produces for it. A rendering is built once per index.
func (vi *ValueIndex) String(d *Deriver, in *joblog.Intern, k int) string {
	if vi.strs[k] == "" {
		vi.strs[k] = d.SymString(in, vi.f, vi.reps[k])
	}
	return vi.strs[k]
}

// Values returns the value index of a derived feature's base or diff
// column, or nil when it has none or FillSample did not build it (the
// feature was outside its mask, or the matrix was filled otherwise).
func (m *PairMatrix) Values(derivedIdx int) *ValueIndex {
	i := m.D.numOff[derivedIdx]
	if i < 0 {
		if i = m.D.symOff[derivedIdx]; i < 0 {
			return nil
		}
		i += m.D.numW
	}
	if vi := &m.vals[i]; vi.built {
		return vi
	}
	return nil
}

// poison makes a built index hold alternating rows in every value —
// planes that overlap, codes that cycle — instead of its column's (see
// PoisonSkipped). An index FillSample did not build stays unbuilt.
func (vi *ValueIndex) poison() {
	if !vi.built || vi.n == 0 {
		return
	}
	if vi.Planar() {
		for w := range vi.planes {
			vi.planes[w] = 0x5555555555555555 << (w / vi.w & 1)
		}
		return
	}
	for row := range vi.codes {
		vi.codes[row] = int32(row % vi.n)
	}
}

// valueScratch is one fill worker's index-building state: an
// open-addressed table from a cell's key (a float's bits, or a symbol) to
// its provisional value, numbered by first appearance; the rows of each
// of the first PlaneCap provisional values as a plane, or, when a column
// has more, each row's provisional value; and the sort's permutation and
// its inverse.
type valueScratch struct {
	slots  []int32 // 1 + provisional value, 0 when free
	keys   []uint64
	home   []int32 // the slot each key sits in
	w      int     // words per plane
	planes []uint64
	rows   []int32
	perm   []int32
	final  []int32
}

// indexRaw builds the value indexes of raw p's wanted base and diff
// columns from the cells the fill just wrote.
func (m *PairMatrix) indexRaw(p *rawPlan, in *joblog.Intern, vs *valueScratch) {
	d := m.D
	if p.baseNumOff >= 0 {
		vi := &m.vals[p.baseNumOff]
		vi.f = p.baseIdx
		vs.numberNum(m.NumCol(p.baseNumOff))
		vi.build(vs, m.N, func(a, b uint64) int {
			x, y := math.Float64frombits(a), math.Float64frombits(b)
			if c := cmp.Compare(x, y); c != 0 {
				return c
			}
			return int(b>>63) - int(a>>63) // −0 before +0
		})
		vi.nums = resize(vi.nums, vi.n)
		for k, r := range vi.reps {
			vi.nums[k] = math.Float64frombits(r)
		}
	}
	for _, c := range [2]struct {
		off, f int
		diff   bool
	}{{p.diffOff, p.diffIdx, true}, {p.baseSymOff, p.baseIdx, false}} {
		if c.off < 0 {
			continue
		}
		vi := &m.vals[d.numW+c.off]
		vi.f = c.f
		vs.numberSym(m.SymCol(c.off))
		if c.diff {
			vi.build(vs, m.N, func(a, b uint64) int { return compareDiff(in, a, b) })
		} else {
			vi.build(vs, m.N, func(a, b uint64) int { return strings.Compare(in.Str(uint32(a)), in.Str(uint32(b))) })
		}
	}
}

// numberNum numbers the distinct present cells of a numeric column by
// first appearance, keyed by their bits (vs.keys[v] is provisional value
// v's key; NaN is missing), and records which rows hold each: in
// vs.planes while there are at most PlaneCap values, else in vs.rows.
// The plane pass builds each word of the current value's plane in a
// register and branches only where the value changes — rarely: a sample's
// base and diff columns hold few values, in long runs — never on a
// missing cell; a column that passes the cap is numbered again into
// vs.rows.
func (vs *valueScratch) numberNum(col []float64) {
	vs.reset(len(col))
	nan := math.Float64bits(math.NaN())
	// No present cell has NaN's bits. Until the first present cell, acc
	// stays empty and lands in plane 0, which enter clears when it numbers
	// the first value.
	last, off := nan, 0
	for w0 := 0; w0 < len(col); w0 += 64 {
		var acc uint64
		for i, x := range col[w0:min(w0+64, len(col))] {
			k, p := math.Float64bits(x), bitset.B2u(x == x)
			if bitset.B2u(k != last)&p != 0 {
				vs.planes[off+w0>>6] |= acc
				last, off, acc = k, vs.enter(k), 0
			}
			acc |= p << uint(i)
		}
		vs.planes[off+w0>>6] |= acc
	}
	if len(vs.keys) > PlaneCap {
		vs.rows = resize(vs.rows, len(col))
		for row, x := range col {
			v := int32(-1)
			if x == x {
				v = vs.lookup(math.Float64bits(x))
			}
			vs.rows[row] = v
		}
	}
	vs.clearSlots()
}

// numberSym is numberNum for a symbol column, whose missing cells hold
// MissingSym.
func (vs *valueScratch) numberSym(col []uint64) {
	vs.reset(len(col))
	last, off := MissingSym, 0
	for w0 := 0; w0 < len(col); w0 += 64 {
		var acc uint64
		for i, k := range col[w0:min(w0+64, len(col))] {
			p := bitset.B2u(k != MissingSym)
			if bitset.B2u(k != last)&p != 0 {
				vs.planes[off+w0>>6] |= acc
				last, off, acc = k, vs.enter(k), 0
			}
			acc |= p << uint(i)
		}
		vs.planes[off+w0>>6] |= acc
	}
	if len(vs.keys) > PlaneCap {
		vs.rows = resize(vs.rows, len(col))
		for row, k := range col {
			v := int32(-1)
			if k != MissingSym {
				v = vs.lookup(k)
			}
			vs.rows[row] = v
		}
	}
	vs.clearSlots()
}

// reset readies vs to number the cells of n rows.
func (vs *valueScratch) reset(n int) {
	if len(vs.slots) == 0 {
		vs.slots = make([]int32, 16)
	}
	vs.keys, vs.home = vs.keys[:0], vs.home[:0]
	vs.w = bitset.Words(n)
	vs.planes = resize(vs.planes, (PlaneCap+1)*vs.w)
}

// enter returns the offset in vs.planes of key k's plane, numbering k
// and clearing its plane on first sight. Every value past PlaneCap
// shares one spare plane, which build never reads.
func (vs *valueScratch) enter(k uint64) int {
	n := len(vs.keys)
	v := min(int(vs.lookup(k)), PlaneCap)
	if len(vs.keys) > n && v == n {
		clear(vs.planes[v*vs.w : (v+1)*vs.w])
	}
	return v * vs.w
}

// clearSlots frees the slots the last numbering filled, so a table grown
// by a wide column costs a narrow one nothing.
func (vs *valueScratch) clearSlots() {
	for _, h := range vs.home {
		vs.slots[h] = 0
	}
}

// lookup returns key k's provisional value, numbering it on first sight.
func (vs *valueScratch) lookup(k uint64) int32 {
	h := valueHash(k, len(vs.slots))
	for vs.slots[h] != 0 {
		if v := vs.slots[h] - 1; vs.keys[v] == k {
			return v
		}
		h = (h + 1) & (len(vs.slots) - 1)
	}
	v := int32(len(vs.keys))
	vs.keys, vs.home = append(vs.keys, k), append(vs.home, int32(h))
	vs.slots[h] = v + 1
	if 2*len(vs.keys) > len(vs.slots) {
		vs.grow()
	}
	return v
}

// valueHash is the home slot of a key in a table of n slots, n a power of
// two: the top bits of a Fibonacci hash (a float's low bits, and a diff
// pack's high ones, are often all zero).
func valueHash(k uint64, n int) int {
	return int(k * 0x9e3779b97f4a7c15 >> (64 - uint(bits.TrailingZeros(uint(n)))))
}

// grow doubles the table and re-slots every key.
func (vs *valueScratch) grow() {
	vs.slots = make([]int32, 2*len(vs.slots))
	mask := len(vs.slots) - 1
	for v, k := range vs.keys {
		h := valueHash(k, len(vs.slots))
		for vs.slots[h] != 0 {
			h = (h + 1) & mask
		}
		vs.slots[h], vs.home[v] = int32(v+1), int32(h)
	}
}

// build sorts the provisional values in vs by order (a value merges into
// the one before it when order calls them equal) and lays the index out
// for n rows: reps and bySym, then the planes or the codes.
func (vi *ValueIndex) build(vs *valueScratch, n int, order func(a, b uint64) int) {
	keys := vs.keys
	vs.perm, vs.final = resize(vs.perm, len(keys)), resize(vs.final, len(keys))
	for v := range vs.perm {
		vs.perm[v] = int32(v)
	}
	slices.SortFunc(vs.perm, func(a, b int32) int { return order(keys[a], keys[b]) })
	vi.reps = vi.reps[:0]
	for i, v := range vs.perm {
		if i == 0 || order(keys[vs.perm[i-1]], keys[v]) != 0 {
			vi.reps = append(vi.reps, keys[v])
		}
		vs.final[v] = int32(len(vi.reps) - 1)
	}
	vi.bySym = resize(vi.bySym, len(keys))
	for v, k := range keys {
		vi.bySym[v] = symValue{sym: k, v: vs.final[v]}
	}
	slices.SortFunc(vi.bySym, func(a, b symValue) int { return cmp.Compare(a.sym, b.sym) })

	vi.n, vi.w, vi.built = len(vi.reps), bitset.Words(n), true
	vi.strs = resize(vi.strs, vi.n)
	clear(vi.strs)
	if !vi.Planar() {
		vi.codes = resize(vi.codes, n)
		for row, v := range vs.rows[:n] {
			c := int32(-1)
			if v >= 0 {
				c = vs.final[v]
			}
			vi.codes[row] = c
		}
		return
	}
	vi.planes = resize(vi.planes, vi.n*vi.w)
	clear(vi.planes)
	if len(keys) > PlaneCap {
		// Symbols that render alike brought the values under the cap.
		for row, v := range vs.rows[:n] {
			if v >= 0 {
				vi.planes[int(vs.final[v])*vi.w+row>>6] |= 1 << (uint(row) & 63)
			}
		}
		return
	}
	for v, f := range vs.final {
		vi.Plane(int(f)).OrWith(vs.planes[v*vi.w : (v+1)*vi.w])
	}
}

// compareDiff orders two diff symbols as strings.Compare orders their
// renderings "(x→y)", without building either.
func compareDiff(in *joblog.Intern, a, b uint64) int {
	pa := [...]string{in.Str(uint32(a >> 32)), "→", in.Str(uint32(a)), ")"}
	pb := [...]string{in.Str(uint32(b >> 32)), "→", in.Str(uint32(b)), ")"}
	i, j := 0, 0
	sa, sb := pa[0], pb[0]
	for {
		for sa == "" && i < len(pa)-1 {
			i++
			sa = pa[i]
		}
		for sb == "" && j < len(pb)-1 {
			j++
			sb = pb[j]
		}
		if sa == "" || sb == "" {
			return cmp.Compare(len(sa), len(sb))
		}
		k := min(len(sa), len(sb))
		if c := strings.Compare(sa[:k], sb[:k]); c != 0 {
			return c
		}
		sa, sb = sa[k:], sb[k:]
	}
}
