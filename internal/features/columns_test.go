package features

// Equivalence tests for the columnar derivation paths: on randomized
// logs — including missing, NaN, ±Inf and −0 cells — BaseNum, DeriveSym
// and FillPairs must reproduce the boxed Value/Vector engine exactly, and
// the symbol codecs must round-trip.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/joblog"
	"perfxplain/internal/stats"
)

func randLog(seed uint64, n int) *joblog.Log { return randWideLog(seed, n, 2, 2) }

// randWideLog is randLog over numeric raws n1…n<numeric> followed by
// nominal raws s1…s<nominal>.
func randWideLog(seed uint64, n, numeric, nominal int) *joblog.Log {
	return randCellsLog(seed, n, numeric, nominal, true, cellNums)
}

// randFullLog is randWideLog without a missing cell: where randWideLog
// draws a missing cell, it draws a value.
func randFullLog(seed uint64, n, numeric, nominal int) *joblog.Log {
	return randCellsLog(seed, n, numeric, nominal, false, cellNums)
}

// cellNums are the numeric cells the random logs draw from; kernelNums
// add subnormals for the kernel tests. Arithmetic on a subnormal takes a
// slow path on amd64, so the benchmark's logs draw none, as job logs
// hold none.
var (
	cellNums   = []float64{0, math.Copysign(0, -1), 1, 1.05, -3, 100, math.Inf(-1), math.Inf(1), math.NaN()}
	kernelNums = append(slices.Clip(cellNums), 5e-324, -2.5e-310, math.SmallestNonzeroFloat64*3)
)

func randCellsLog(seed uint64, n, numeric, nominal int, missing bool, nums []float64) *joblog.Log {
	var fields []joblog.Field
	for i := 1; i <= numeric; i++ {
		fields = append(fields, joblog.Field{Name: fmt.Sprint("n", i), Kind: joblog.Numeric})
	}
	for i := 1; i <= nominal; i++ {
		fields = append(fields, joblog.Field{Name: fmt.Sprint("s", i), Kind: joblog.Nominal})
	}
	schema := joblog.NewSchema(fields)
	strs := []string{"x", "y", "a→b", "(x→y)", " "}
	log := joblog.NewLog(schema)
	ctr := seed
	next := func() uint64 {
		ctr++
		return stats.SplitMix64(ctr)
	}
	for i := 0; i < n; i++ {
		rec := &joblog.Record{ID: string(rune('a' + i)), Values: make([]joblog.Value, schema.Len())}
		for f := 0; f < schema.Len(); f++ {
			r := next()
			numeric := schema.Field(f).Kind == joblog.Numeric
			switch {
			case r%8 == 0 && missing:
				rec.Values[f] = joblog.None()
			default:
				if numeric {
					rec.Values[f] = joblog.Num(nums[(r>>8)%uint64(len(nums))])
				} else {
					rec.Values[f] = joblog.Str(strs[(r>>8)%uint64(len(strs))])
				}
			}
		}
		log.MustAppend(rec)
	}
	return log
}

// allPairs returns every ordered pair of the log's records, self pairs
// included, in row-major order.
func allPairs(n int) (ai, bi []int) {
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			ai, bi = append(ai, a), append(bi, b)
		}
	}
	return ai, bi
}

func TestColumnarDeriveMatchesBoxed(t *testing.T) {
	for _, level := range []Level{Level1, Level2, Level3} {
		for seed := uint64(0); seed < 20; seed++ {
			log := randLog(seed, 6)
			d := NewDeriver(log.Schema, level)
			cols := log.Columns()
			ai, bi := allPairs(log.Len())
			m := d.NewPairMatrix(len(ai))
			m.FillPairs(cols, 0, ai, bi)
			checkCodeInvariants(t, m)
			for row, a := range ai {
				b := bi[row]
				ra, rb := log.Records[a], log.Records[b]
				for i := 0; i < d.Schema().Len(); i++ {
					want := d.Value(ra, rb, i)
					// The scalar columnar derive must equal the boxed one
					// exactly.
					got := columnarValue(d, cols, a, b, i)
					if !valueIdentical(got, want) {
						t.Fatalf("L%d seed %d: columnar (%d,%d,%s) = %v, want %v",
							level, seed, a, b, d.Schema().Field(i).Name, got, want)
					}
					// The materialized planes must agree with the boxed
					// value under the plane encodings.
					checkPlaneCell(t, d, cols, i, m, row, want)
				}
			}
		}
	}
}

// TestFillMatchesFillPairs pins Fill and FillSample as the bulk kernel:
// a matrix filled row by row, one filled by FillSample, one filled by a
// single FillPairs call and one filled in word-aligned ragged chunks hold
// identical columns and code planes — and so does a recycled one,
// reshaped from whatever shape and poisoned content the last level left
// it with, because a fill writes every cell and bit of its rows.
func TestFillMatchesFillPairs(t *testing.T) {
	recycled := new(PairMatrix)
	for _, level := range []Level{Level1, Level3, Level2, Level3} {
		log := randLog(11, 13) // 169 pairs: two full words and a tail
		d := NewDeriver(log.Schema, level)
		cols := log.Columns()
		ai, bi := allPairs(log.Len())
		bulk := d.NewPairMatrix(len(ai))
		bulk.FillPairs(cols, 0, ai, bi)
		rows := d.NewPairMatrix(len(ai))
		for row := range ai {
			rows.Fill(cols, row, ai[row], bi[row])
		}
		sample := d.NewPairMatrix(len(ai))
		sample.FillSample(cols, ai, bi, nil, 2)
		ragged := d.NewPairMatrix(len(ai))
		for lo, step := 0, 64; lo < len(ai); lo, step = lo+step, step+64 {
			hi := min(lo+step, len(ai))
			ragged.FillPairs(cols, lo, ai[lo:hi], bi[lo:hi])
		}
		d.ReshapePairMatrix(recycled, len(ai))
		recycled.FillSample(cols, ai, bi, nil, 1)
		for name, m := range map[string]*PairMatrix{"row-by-row": rows, "FillSample": sample,
			"ragged chunks": ragged, "recycled": recycled} {
			if !sameMatrix(m, bulk) {
				t.Errorf("L%d: %s fill differs from one FillPairs call", level, name)
			}
		}
		// Poison what the next level inherits.
		for i := range recycled.Num {
			recycled.Num[i] = -1
		}
		for i := range recycled.Sym {
			recycled.Sym[i] = 0xdead
		}
		for i := range recycled.Code {
			recycled.Code[i] = ^uint64(0)
		}
	}
}

// TestFillSampleMatchesDirect holds the gathered fill to the direct one
// on samples drawn with replacement from a larger log — records repeat
// across pairs and within one, cells are missing, NaN, ±Inf, −0 or
// subnormal — at several sizes and worker counts, into one recycled
// matrix. The wide cases fill 2 000 pairs over 5 000 records of a 37-raw
// log, the width the engine runs at, so each worker fills many raw
// columns; they run once on a log with missing cells and once on one
// without, whose gathered columns take the kernels that load no missing
// bit. Each case also fills under a random mask of wanted features, and
// every column and triple the mask keeps must equal the direct fill's.
func TestFillSampleMatchesDirect(t *testing.T) {
	gathered, masked := new(PairMatrix), new(PairMatrix)
	check := func(log *joblog.Log, seed uint64, level Level, n, workers int) {
		t.Helper()
		d := NewDeriver(log.Schema, level)
		cols := log.Columns()
		ai, bi := make([]int, n), make([]int, n)
		for k := range ai {
			r := stats.SplitMix64(seed<<32 | uint64(k))
			ai[k], bi[k] = int(r%uint64(log.Len())), int(r>>32%uint64(log.Len()))
		}
		direct := d.NewPairMatrix(n)
		direct.FillPairs(cols, 0, ai, bi)
		d.ReshapePairMatrix(gathered, n)
		gathered.FillSample(cols, ai, bi, nil, workers)
		if !sameMatrix(gathered, direct) {
			t.Fatalf("seed %d, %d raws, %d pairs, %d workers: gathered fill differs from the direct one",
				seed, log.Schema.Len(), n, workers)
		}
		checkCodeInvariants(t, gathered)
		checkValueIndexes(t, gathered, cols.Intern(), nil)
		want := bitset.Make(d.Schema().Len())
		for f := range d.Schema().Len() {
			if stats.SplitMix64(seed<<40|uint64(f))%3 == 0 {
				want.SetBit(f)
			}
		}
		d.ReshapePairMatrix(masked, n)
		masked.FillSample(cols, ai, bi, want, workers)
		checkWantedColumns(t, masked, direct, want)
		checkValueIndexes(t, masked, cols.Intern(), want)
	}
	for seed := uint64(0); seed < 12; seed++ {
		check(randLog(100+seed, 70), seed, Level(1+seed%3), []int{1, 63, 64, 65, 300, 1100}[seed%6], int(1+seed%4))
	}
	wide, full := randWideLog(7, 5000, 34, 3), randFullLog(7, 5000, 34, 3)
	for workers := 1; workers <= 4; workers++ {
		seed := uint64(20 + workers)
		check(wide, seed, Level(1+seed%3), 2000+workers*13, workers)
		check(full, seed, Level(1+seed%3), 2000+workers*13, workers)
	}
}

// checkValueIndexes fails unless every base and diff column FillSample
// wrote under want (nil: all) has a value index that lists its distinct
// values in the scorer's order — numbers ascending with −0 before +0,
// symbols by strictly ascending rendering — and places each row in
// exactly the value its cell holds (a missing cell in none), and no other
// column has one.
func checkValueIndexes(t *testing.T, m *PairMatrix, in *joblog.Intern, want bitset.Set) {
	t.Helper()
	d := m.D
	for f := range d.Schema().Len() {
		vi := m.Values(f)
		stored := d.NumOffset(f) >= 0 || d.SymOffset(f) >= 0
		if vi == nil {
			if stored && (want == nil || want.Get(f)) {
				t.Fatalf("%s: written but has no value index", d.Schema().Field(f).Name)
			}
			continue
		}
		if !stored || want != nil && !want.Get(f) {
			t.Fatalf("%s: a value index on a column FillSample did not write", d.Schema().Field(f).Name)
		}
		render := func(k int) string { return vi.String(d, in, k) }
		if off := d.NumOffset(f); off >= 0 {
			nums := vi.Nums()
			for k := 1; k < len(nums); k++ {
				if !(nums[k-1] < nums[k] || nums[k-1] == 0 && math.Signbit(nums[k-1]) && !math.Signbit(nums[k])) {
					t.Fatalf("%s: values %v out of order", d.Schema().Field(f).Name, nums)
				}
			}
			render = func(k int) string { return fmt.Sprint(math.Float64bits(nums[k])) }
		} else {
			for k := 1; k < vi.Len(); k++ {
				if render(k-1) >= render(k) {
					t.Fatalf("%s: values %q, %q out of order", d.Schema().Field(f).Name, render(k-1), render(k))
				}
			}
		}
		for row := 0; row < m.N; row++ {
			held := -1
			for k := 0; k < vi.Len(); k++ {
				has := vi.Planar() && vi.Plane(k).Get(row) || !vi.Planar() && vi.Codes()[row] == int32(k)
				if has && held >= 0 {
					t.Fatalf("%s row %d: in values %d and %d", d.Schema().Field(f).Name, row, held, k)
				}
				if has {
					held = k
				}
			}
			cell := ""
			if off := d.NumOffset(f); off >= 0 {
				if x := m.NumAt(row, off); x == x {
					cell = fmt.Sprint(math.Float64bits(x))
				}
			} else if s := m.SymAt(row, d.SymOffset(f)); s != MissingSym {
				cell = d.SymString(in, f, s)
			}
			switch {
			case held >= 0 && render(held) != cell:
				t.Fatalf("%s row %d: in value %q, cell %q", d.Schema().Field(f).Name, row, render(held), cell)
			case held < 0 && cell != "":
				t.Fatalf("%s row %d: cell %q in no value", d.Schema().Field(f).Name, row, cell)
			}
		}
	}
}

// TestPoisonSkippedPoisonsValueIndexes pins PoisonSkipped's value-index
// half: an index of a skipped column that FillSample built is overwritten
// — every plane or code changes — while a wanted column's is kept.
func TestPoisonSkippedPoisonsValueIndexes(t *testing.T) {
	log := randLog(3, 60)
	cols := log.Columns()
	d := NewDeriver(log.Schema, Level3)
	ai, bi := allPairs(log.Len())
	m := d.NewPairMatrix(len(ai))
	m.FillSample(cols, ai, bi, nil, 2)
	type snap struct {
		f      int
		planes []uint64
		codes  []int32
	}
	var before []snap
	want := bitset.Make(d.Schema().Len())
	for f := range d.Schema().Len() {
		if vi := m.Values(f); vi != nil && vi.Len() > 0 {
			before = append(before, snap{f, slices.Clone(vi.planes), slices.Clone(vi.codes)})
			if len(before)%2 == 0 {
				want.SetBit(f)
			}
		}
	}
	if len(before) < 4 {
		t.Fatalf("the fixture indexes %d columns", len(before))
	}
	m.PoisonSkipped(want)
	for _, s := range before {
		vi := m.Values(s.f)
		kept := vi != nil && slices.Equal(vi.planes, s.planes) && slices.Equal(vi.codes, s.codes)
		if kept != want.Get(s.f) {
			t.Errorf("%s (wanted %v): index kept %v after PoisonSkipped", d.Schema().Field(s.f).Name, want.Get(s.f), kept)
		}
	}
}

// checkWantedColumns fails unless every derived feature in want reads
// the same in got as in ref: its numeric or symbol column cell for cell,
// or its raw's code triple word for word.
func checkWantedColumns(t *testing.T, got, ref *PairMatrix, want bitset.Set) {
	t.Helper()
	d := ref.D
	for f := range d.Schema().Len() {
		if !want.Get(f) {
			continue
		}
		name := d.Schema().Field(f).Name
		if off := d.NumOffset(f); off >= 0 && !slices.EqualFunc(got.NumCol(off), ref.NumCol(off), sameFloat) {
			t.Fatalf("wanted numeric column %s differs from the full fill", name)
		}
		if off := d.SymOffset(f); off >= 0 && !slices.Equal(got.SymCol(off), ref.SymCol(off)) {
			t.Fatalf("wanted symbol column %s differs from the full fill", name)
		}
		if off := d.CodeOffset(f); off >= 0 {
			gp, gs, gl := got.CodePlanes(off)
			rp, rs, rl := ref.CodePlanes(off)
			if !slices.Equal(gp, rp) || !slices.Equal(gs, rs) || !slices.Equal(gl, rl) {
				t.Fatalf("wanted code triple of %s differs from the full fill", name)
			}
		}
	}
}

// TestFillPairsConcurrentChunks fills disjoint word-aligned runs from
// several goroutines at once, which FillPairs's contract allows; under
// -race it shows that no two runs share a written cell or word. A run that does
// not start on a word is refused.
func TestFillPairsConcurrentChunks(t *testing.T) {
	log := randLog(5, 23)
	d := NewDeriver(log.Schema, Level3)
	cols := log.Columns()
	ai, bi := allPairs(log.Len())
	want := d.NewPairMatrix(len(ai))
	want.FillPairs(cols, 0, ai, bi)
	got := d.NewPairMatrix(len(ai))
	const chunk = 64
	var wg sync.WaitGroup
	for lo := 0; lo < len(ai); lo += chunk {
		hi := min(lo+chunk, len(ai))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got.FillPairs(cols, lo, ai[lo:hi], bi[lo:hi])
		}()
	}
	wg.Wait()
	if !sameMatrix(got, want) {
		t.Error("concurrent chunked fill differs from the serial one")
	}
	defer func() {
		if recover() == nil {
			t.Error("FillPairs at row 17 did not panic")
		}
	}()
	got.FillPairs(cols, 17, ai[17:30], bi[17:30])
}

// TestCodeWordMatchesScalar holds the numeric code kernels to the
// scalar definition pair by pair: present where neither cell is missing,
// SIM and LT by CompareNum over present cells. Runs of every length from
// 1 to 64 draw their pairs from a log of a few records, so records repeat
// within a run and self pairs occur; the cells cover missing, NaN, ±Inf,
// −0 and subnormal values. Logs with and without missing cells go
// through CodeWord with the column's missing bits and, where it has none,
// with nil (the kernel that loads none), and through FillSample, whose
// gathered columns take that kernel whenever the run's cells are all
// present.
func TestCodeWordMatchesScalar(t *testing.T) {
	checkCodeKernels(t, joblog.Numeric, func(c *joblog.Col, miss bitset.Set, ai, bi []int) (uint64, uint64, uint64) {
		return CodeWord(c.Num, miss, ai, bi)
	})
}

// TestSameWordMatchesScalar is TestCodeWordMatchesScalar for the nominal
// kernels: present where neither cell is missing, SIM where present and
// equal, LT empty.
func TestSameWordMatchesScalar(t *testing.T) {
	checkCodeKernels(t, joblog.Nominal, func(c *joblog.Col, miss bitset.Set, ai, bi []int) (uint64, uint64, uint64) {
		present, equal := SameWord(c.Sym, miss, ai, bi)
		return present, equal, 0
	})
}

// checkCodeKernels runs the kernel word over every raw of the given kind
// (see TestCodeWordMatchesScalar) and the FillSample of the same runs.
func checkCodeKernels(t *testing.T, kind joblog.Kind, word func(c *joblog.Col, miss bitset.Set, ai, bi []int) (uint64, uint64, uint64)) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, missing := range []bool{true, false} {
			log := randCellsLog(seed, 9, 2, 2, missing, kernelNums)
			cols := log.Columns()
			d := NewDeriver(log.Schema, Level1)
			m := new(PairMatrix)
			ctr := seed << 32
			for n := 1; n <= 64; n++ {
				ai, bi := make([]int, n), make([]int, n)
				for k := range ai {
					ctr++
					r := stats.SplitMix64(ctr)
					ai[k], bi[k] = int(r%9), int(r>>32%9)
				}
				d.ReshapePairMatrix(m, n)
				m.FillSample(cols, ai, bi, nil, 1)
				for f := 0; f < log.Schema.Len(); f++ {
					c := cols.Col(f)
					if c.Kind != kind {
						continue
					}
					what := fmt.Sprintf("seed %d field %d run %d", seed, f, n)
					present, sim, lt := word(c, c.Miss, ai, bi)
					checkCodeBits(t, what, c, ai, bi, present, sim, lt)
					if !c.Miss.Any() {
						present, sim, lt = word(c, nil, ai, bi)
						checkCodeBits(t, what+" (no missing bits)", c, ai, bi, present, sim, lt)
					}
					p, s, l := m.CodePlanes(f)
					checkCodeBits(t, what+" (FillSample)", c, ai, bi, p[0], s[0], l[0])
				}
			}
		}
	}
}

// checkCodeBits fails unless bit k of present, sim and lt is the scalar
// code of the pair (ai[k], bi[k]) of column c, and no bit past the run is
// set.
func checkCodeBits(t *testing.T, what string, c *joblog.Col, ai, bi []int, present, sim, lt uint64) {
	t.Helper()
	if n := len(ai); (present|sim|lt)>>n != 0 { // a shift by 64 leaves 0
		t.Fatalf("%s: bits set past the run", what)
	}
	for k, a := range ai {
		b := bi[k]
		wantPresent := !c.Miss.Get(a) && !c.Miss.Get(b)
		var wantSIM, wantLT bool
		switch {
		case !wantPresent:
		case c.Kind == joblog.Numeric:
			code := CompareNum(c.Num[a], c.Num[b])
			wantSIM, wantLT = code == SymSIM, code == SymLT
		default:
			wantSIM = c.Sym[a] == c.Sym[b]
		}
		gotPresent, gotSIM, gotLT := present>>k&1 != 0, sim>>k&1 != 0, lt>>k&1 != 0
		if gotPresent != wantPresent || gotSIM != wantSIM || gotLT != wantLT {
			t.Fatalf("%s pair %d (%d, %d): present/SIM/LT = %v/%v/%v, want %v/%v/%v",
				what, k, a, b, gotPresent, gotSIM, gotLT, wantPresent, wantSIM, wantLT)
		}
	}
}

// sameMatrix reports whether two matrices hold identical stores, floats
// compared by bits.
func sameMatrix(a, b *PairMatrix) bool {
	return a.N == b.N && slices.Equal(a.Sym, b.Sym) && slices.Equal(a.Code, b.Code) &&
		slices.EqualFunc(a.Num, b.Num, sameFloat)
}

// checkCodeInvariants checks every code-plane triple: SIM and LT are
// disjoint subsets of present, a nominal raw's LT is empty, and no bit is
// set past row N.
func checkCodeInvariants(t *testing.T, m *PairMatrix) {
	t.Helper()
	for off := 0; off < m.D.raw.Len(); off++ {
		present, sim, lt := m.CodePlanes(off)
		nominal := m.D.raw.Field(off).Kind == joblog.Nominal
		for w := range present {
			if sim[w]&^present[w] != 0 || lt[w]&^present[w] != 0 || sim[w]&lt[w] != 0 || nominal && lt[w] != 0 {
				t.Fatalf("triple %d word %d: present %#x SIM %#x LT %#x", off, w, present[w], sim[w], lt[w])
			}
		}
		if tail := uint(m.N) & 63; tail != 0 {
			if last := len(present) - 1; present[last]>>tail != 0 {
				t.Fatalf("triple %d: bits set past row %d", off, m.N)
			}
		}
	}
}

// sameFloat is bit equality, so NaN equals NaN and -0 differs from +0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// valueIdentical is struct equality with floats compared by bits.
func valueIdentical(a, b joblog.Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str && sameFloat(a.Num, b.Num)
}

// columnarValue is derived feature i of the pair (a, b) read off the
// raw planes by the scalar kernels, boxed: BaseNum for a numeric-plane
// feature (NaN is missing), DeriveSym rendered by SymString for every
// other (MissingSym is missing).
func columnarValue(d *Deriver, cols *joblog.Columns, a, b, i int) joblog.Value {
	if d.NumOffset(i) >= 0 {
		rawIdx, _ := d.RawOf(i)
		if x := BaseNum(cols.Col(rawIdx), a, b); !math.IsNaN(x) {
			return joblog.Num(x)
		}
		return joblog.None()
	}
	if s := d.DeriveSym(cols, a, b, i); s != MissingSym {
		return joblog.Str(d.SymString(cols.Intern(), i, s))
	}
	return joblog.None()
}

func checkPlaneCell(t *testing.T, d *Deriver, cols *joblog.Columns, i int,
	m *PairMatrix, row int, want joblog.Value) {
	t.Helper()
	_, kind := d.RawOf(i)
	if off := d.NumOffset(i); off >= 0 {
		got := m.NumAt(row, off)
		switch {
		case want.Kind == joblog.Numeric:
			if !sameFloat(got, want.Num) {
				t.Fatalf("num plane %s = %v, want %v", d.Schema().Field(i).Name, got, want.Num)
			}
		case want.IsMissing():
			if !math.IsNaN(got) {
				t.Fatalf("num plane %s = %v, want NaN", d.Schema().Field(i).Name, got)
			}
		default:
			t.Fatalf("unexpected boxed value %v in numeric plane", want)
		}
		return
	}
	var got uint64
	switch {
	case d.CodeOffset(i) >= 0:
		code := m.CodeAt(row, d.CodeOffset(i))
		got = code
		if kind == IsSame && code != MissingSym {
			got = SymF
			if code == SymSIM {
				got = SymT
			}
		}
	case d.SymOffset(i) >= 0:
		got = m.SymAt(row, d.SymOffset(i))
	default: // no storage: the family must be missing on every pair
		if !want.IsMissing() {
			t.Fatalf("%s has no storage but derives %v", d.Schema().Field(i).Name, want)
		}
		return
	}
	switch {
	case want.Kind == joblog.Nominal:
		if got == MissingSym || d.SymString(cols.Intern(), i, got) != want.Str {
			t.Fatalf("sym plane %s = %#x, want %q", d.Schema().Field(i).Name, got, want.Str)
		}
	case want.IsMissing():
		if got != MissingSym {
			t.Fatalf("sym plane %s = %#x, want missing", d.Schema().Field(i).Name, got)
		}
	default:
		t.Fatalf("unexpected boxed value %v in symbol plane", want)
	}
}

func TestSymCodecRoundTrip(t *testing.T) {
	log := randLog(3, 6)
	d := NewDeriver(log.Schema, Level3)
	cols := log.Columns()
	in := cols.Intern()
	for i := 0; i < d.Schema().Len(); i++ {
		if d.NumOffset(i) >= 0 {
			continue
		}
		for a := range log.Records {
			for b := range log.Records {
				sym := d.DeriveSym(cols, a, b, i)
				if sym == MissingSym {
					continue
				}
				s := d.SymString(in, i, sym)
				back := d.SymsForString(in, i, s)
				found := false
				for _, bs := range back {
					if bs == sym {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: sym %#x renders %q whose syms %v do not include it",
						d.Schema().Field(i).Name, sym, s, back)
				}
			}
		}
	}
}

// TestMaterializeDoesNotAllocate pins the steady state of pair
// materialization: once the columnar view and the matrix exist, a direct
// fill — missing cells included — touches no allocator, and
// neither does Fill, the same kernel on one pair. A gathered fill of a
// recycled matrix allocates only its fork-join's closure, however many
// pairs it fills.
func TestMaterializeDoesNotAllocate(t *testing.T) {
	log := randLog(7, 40)
	cols := log.Columns()
	d := NewDeriver(log.Schema, Level3)
	ai, bi := allPairs(log.Len())
	m := d.NewPairMatrix(len(ai))
	allocs := testing.AllocsPerRun(20, func() {
		m.FillPairs(cols, 0, ai, bi)
		for row := range ai {
			m.Fill(cols, row, ai[row], bi[row])
		}
	})
	if allocs != 0 {
		t.Errorf("materializing %d pairs allocates %v times per run, want 0", len(ai), allocs)
	}
	for _, n := range []int{100, len(ai)} {
		sample := func() {
			d.ReshapePairMatrix(m, n)
			m.FillSample(cols, ai[:n], bi[:n], nil, 1)
		}
		sample() // sizes the gather
		if allocs := testing.AllocsPerRun(20, sample); allocs > 1 {
			t.Errorf("FillSample of %d pairs allocates %v times per run, want at most 1", n, allocs)
		}
	}
}

// BenchmarkFillSample times FillSample as core.materialize runs it: a
// 2 000-pair sample over a 27 000-record log of 34 numeric and 3 nominal
// raws, Level3 features, into one recycled matrix, on 1 and 2 workers.
// cells=missing draws one cell in eight missing, so every column takes
// the kernels that load missing bits; cells=full has no missing cell, as
// the benchmark's simulated logs have none, and takes the ones that load
// none.
func BenchmarkFillSample(b *testing.B) {
	for _, cells := range []string{"missing", "full"} {
		log := randWideLog(3, 27000, 34, 3)
		if cells == "full" {
			log = randFullLog(3, 27000, 34, 3)
		}
		cols := log.Columns()
		d := NewDeriver(log.Schema, Level3)
		const n = 2000
		ai, bi := make([]int, n), make([]int, n)
		for k := range ai {
			r := stats.SplitMix64(uint64(k))
			ai[k], bi[k] = int(r%uint64(log.Len())), int(r>>32%uint64(log.Len()))
		}
		m := d.NewPairMatrix(n)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("cells=%s/workers=%d", cells, workers), func(b *testing.B) {
				m.FillSample(cols, ai, bi, nil, workers) // sizes the gather
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					d.ReshapePairMatrix(m, n)
					m.FillSample(cols, ai, bi, nil, workers)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pair")
			})
		}
	}
}
