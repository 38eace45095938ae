package features

// Equivalence tests for the columnar derivation paths: on randomized
// logs — including missing, NaN, ±Inf and −0 cells — BaseNum, DeriveSym
// and FillPairs must reproduce the boxed Value/Vector engine exactly, and
// the symbol codecs must round-trip.

import (
	"math"
	"slices"
	"sync"
	"testing"

	"perfxplain/internal/joblog"
	"perfxplain/internal/stats"
)

func randLog(seed uint64, n int) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "n1", Kind: joblog.Numeric},
		{Name: "n2", Kind: joblog.Numeric},
		{Name: "s1", Kind: joblog.Nominal},
		{Name: "s2", Kind: joblog.Nominal},
	})
	nums := []float64{0, math.Copysign(0, -1), 1, 1.05, -3, 100, math.Inf(-1), math.Inf(1), math.NaN()}
	strs := []string{"x", "y", "a→b", "(x→y)", ""}
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
			switch r % 8 {
			case 0:
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
		sample.FillSample(cols, ai, bi, 2)
		ragged := d.NewPairMatrix(len(ai))
		for lo, step := 0, 64; lo < len(ai); lo, step = lo+step, step+64 {
			hi := min(lo+step, len(ai))
			ragged.FillPairs(cols, lo, ai[lo:hi], bi[lo:hi])
		}
		d.ReshapePairMatrix(recycled, len(ai))
		recycled.FillSample(cols, ai, bi, 1)
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
// across pairs and within one, cells are missing, NaN, ±Inf or −0 — at
// several sizes and worker counts, into one recycled matrix.
func TestFillSampleMatchesDirect(t *testing.T) {
	gathered := new(PairMatrix)
	for seed := uint64(0); seed < 12; seed++ {
		log := randLog(100+seed, 70)
		d := NewDeriver(log.Schema, Level(1+seed%3))
		cols := log.Columns()
		n := []int{1, 63, 64, 65, 300, 1100}[seed%6]
		ai, bi := make([]int, n), make([]int, n)
		for k := range ai {
			r := stats.SplitMix64(seed<<32 | uint64(k))
			ai[k], bi[k] = int(r%uint64(log.Len())), int(r>>32%uint64(log.Len()))
		}
		direct := d.NewPairMatrix(n)
		direct.FillPairs(cols, 0, ai, bi)
		d.ReshapePairMatrix(gathered, n)
		gathered.FillSample(cols, ai, bi, int(1+seed%4))
		if !sameMatrix(gathered, direct) {
			t.Fatalf("seed %d, %d pairs: gathered fill differs from the direct one", seed, n)
		}
		checkCodeInvariants(t, gathered)
	}
}

// TestFillPairsConcurrentChunks fills disjoint word-aligned runs from
// several goroutines at once, the way FillSample does; under -race it
// shows that no two runs share a written cell or word. A run that does
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

// TestCodeWordMatchesScalar holds the shared code kernel to the scalar
// definitions pair by pair: CodeWord's bits to CompareNum over present
// cells, SameWord's to symbol equality. Runs of every length from 1 to 64
// draw their pairs from a log of a few records, so records repeat within
// a run and self pairs occur, and the cells cover missing, NaN, ±Inf and
// −0 values.
func TestCodeWordMatchesScalar(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		log := randLog(seed, 9)
		cols := log.Columns()
		ctr := seed << 32
		for n := 1; n <= 64; n++ {
			ai, bi := make([]int, n), make([]int, n)
			for k := range ai {
				ctr++
				r := stats.SplitMix64(ctr)
				ai[k], bi[k] = int(r%9), int(r>>32%9)
			}
			for f := 0; f < log.Schema.Len(); f++ {
				c := cols.Col(f)
				var present, sim, lt uint64
				if c.Kind == joblog.Numeric {
					present, sim, lt = CodeWord(c, ai, bi)
				} else {
					present, sim = SameWord(c, ai, bi)
				}
				if (present|sim|lt)>>n != 0 { // a shift by 64 leaves 0
					t.Fatalf("seed %d field %d run %d: bits set past the run", seed, f, n)
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
						t.Fatalf("seed %d field %d run %d pair %d (%d, %d): present/SIM/LT = %v/%v/%v, want %v/%v/%v",
							seed, f, n, k, a, b, gotPresent, gotSIM, gotLT, wantPresent, wantSIM, wantLT)
					}
				}
			}
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
// recycled matrix allocates only its two fork-joins' closures, however
// many pairs it fills.
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
			m.FillSample(cols, ai[:n], bi[:n], 1)
		}
		sample() // sizes the gather
		if allocs := testing.AllocsPerRun(20, sample); allocs > 2 {
			t.Errorf("FillSample of %d pairs allocates %v times per run, want at most 2", n, allocs)
		}
	}
}
