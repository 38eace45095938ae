package features

// Equivalence tests for the columnar derivation paths: on randomized
// logs — including missing and kind-mismatched (alien) cells — ValueCol
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
	nums := []float64{0, math.Copysign(0, -1), 1, 1.05, -3, 100, math.Inf(-1), math.NaN()}
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
			case 1: // alien
				numeric = !numeric
				fallthrough
			default:
				if numeric {
					rec.Values[f] = joblog.Num(nums[int(r>>8)%len(nums)])
				} else {
					rec.Values[f] = joblog.Str(strs[int(r>>8)%len(strs)])
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
			for row, a := range ai {
				b := bi[row]
				ra, rb := log.Records[a], log.Records[b]
				for i := 0; i < d.Schema().Len(); i++ {
					want := d.Value(ra, rb, i)
					// ValueCol must equal the boxed derive exactly.
					got := d.ValueCol(cols, a, b, i)
					if !valueIdentical(got, want) {
						t.Fatalf("L%d seed %d: ValueCol(%d,%d,%s) = %v, want %v",
							level, seed, a, b, d.Schema().Field(i).Name, got, want)
					}
					// The materialized planes must agree with the boxed
					// value under the plane encodings (alien-pair base
					// values legitimately materialize as missing).
					checkPlaneCell(t, d, cols, i, m, row, want, a, b)
				}
			}
		}
	}
}

// TestFillMatchesFillPairs pins Fill as the bulk kernel on one pair: a
// matrix filled row by row, one filled by a single FillPairs call and one
// filled in ragged chunks hold identical planes — and so does a recycled
// one, reshaped from whatever shape and content the last level left it
// with, because a fill writes every cell of its rows.
func TestFillMatchesFillPairs(t *testing.T) {
	recycled := new(PairMatrix)
	for _, level := range []Level{Level1, Level3, Level2, Level3} {
		log := randLog(11, 9)
		d := NewDeriver(log.Schema, level)
		cols := log.Columns()
		ai, bi := allPairs(log.Len())
		bulk := d.NewPairMatrix(len(ai))
		bulk.FillPairs(cols, 0, ai, bi)
		rows := d.NewPairMatrix(len(ai))
		for row := range ai {
			rows.Fill(cols, row, ai[row], bi[row])
		}
		ragged := d.NewPairMatrix(len(ai))
		for lo, step := 0, 1; lo < len(ai); lo, step = lo+step, step+3 {
			hi := min(lo+step, len(ai))
			ragged.FillPairs(cols, lo, ai[lo:hi], bi[lo:hi])
		}
		d.ReshapePairMatrix(recycled, len(ai))
		recycled.FillPairs(cols, 0, ai, bi)
		for name, m := range map[string]*PairMatrix{"row-by-row": rows, "ragged chunks": ragged, "recycled": recycled} {
			if !slices.Equal(m.Sym, bulk.Sym) || !slices.EqualFunc(m.Num, bulk.Num, sameFloat) {
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
	}
}

// TestFillPairsConcurrentChunks fills disjoint row ranges from several
// goroutines at once, the way core.materialize does; under -race it shows
// that no two chunks share a written cell.
func TestFillPairsConcurrentChunks(t *testing.T) {
	log := randLog(5, 12)
	d := NewDeriver(log.Schema, Level3)
	cols := log.Columns()
	ai, bi := allPairs(log.Len())
	want := d.NewPairMatrix(len(ai))
	want.FillPairs(cols, 0, ai, bi)
	got := d.NewPairMatrix(len(ai))
	const chunk = 17
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
	if !slices.Equal(got.Sym, want.Sym) || !slices.EqualFunc(got.Num, want.Num, sameFloat) {
		t.Error("concurrent chunked fill differs from the serial one")
	}
}

// sameFloat is bit equality, so NaN equals NaN and -0 differs from +0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// valueIdentical is struct equality with floats compared by bits.
func valueIdentical(a, b joblog.Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str && sameFloat(a.Num, b.Num)
}

func checkPlaneCell(t *testing.T, d *Deriver, cols *joblog.Columns, i int,
	m *PairMatrix, row int, want joblog.Value, a, b int) {
	t.Helper()
	rawIdx, kind := d.RawOf(i)
	alienPair := cols.Col(rawIdx).Alien(a) || cols.Col(rawIdx).Alien(b)
	if off := d.NumOffset(i); off >= 0 {
		got := m.NumAt(row, off)
		switch {
		case want.Kind == joblog.Numeric:
			if !sameFloat(got, want.Num) {
				t.Fatalf("num plane %s = %v, want %v", d.Schema().Field(i).Name, got, want.Num)
			}
		case want.IsMissing() || (kind == Base && alienPair):
			if !math.IsNaN(got) {
				t.Fatalf("num plane %s = %v, want NaN", d.Schema().Field(i).Name, got)
			}
		default:
			t.Fatalf("unexpected boxed value %v in numeric plane", want)
		}
		return
	}
	got := m.SymAt(row, d.SymOffset(i))
	switch {
	case want.Kind == joblog.Nominal:
		if got == MissingSym || d.SymString(cols.Intern(), i, got) != want.Str {
			t.Fatalf("sym plane %s = %#x, want %q", d.Schema().Field(i).Name, got, want.Str)
		}
	case want.IsMissing() || (kind == Base && alienPair):
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
		if d.SymOffset(i) < 0 {
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
// materialization: once the columnar view and the matrix exist, a bulk
// fill — missing and alien cells included — touches no allocator, and
// neither does Fill, the same kernel on one pair.
func TestMaterializeDoesNotAllocate(t *testing.T) {
	log := randLog(7, 12)
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
}
