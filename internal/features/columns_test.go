package features

// Equivalence tests for the columnar derivation paths: on randomized
// logs — including missing and kind-mismatched (alien) cells — ValueCol
// and MaterializeInto must reproduce the boxed Value/Vector engine
// exactly, and the symbol codecs must round-trip.

import (
	"math"
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
	nums := []float64{0, 1, 1.05, -3, 100, math.Inf(-1)}
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

func TestColumnarDeriveMatchesBoxed(t *testing.T) {
	for _, level := range []Level{Level1, Level2, Level3} {
		for seed := uint64(0); seed < 20; seed++ {
			log := randLog(seed, 6)
			d := NewDeriver(log.Schema, level)
			cols := log.Columns()
			numRow := make([]float64, d.numW)
			symRow := make([]uint64, d.symW)
			for a := range log.Records {
				for b := range log.Records {
					ra, rb := log.Records[a], log.Records[b]
					want := d.Vector(ra, rb)
					d.MaterializeInto(cols, a, b, numRow, symRow)
					for i := 0; i < d.Schema().Len(); i++ {
						// ValueCol must equal the boxed derive exactly.
						got := d.ValueCol(cols, a, b, i)
						if !valueIdentical(got, want[i]) {
							t.Fatalf("L%d seed %d: ValueCol(%d,%d,%s) = %v, want %v",
								level, seed, a, b, d.Schema().Field(i).Name, got, want[i])
						}
						// The materialized planes must agree with the boxed
						// vector under the plane encodings (alien-pair base
						// values legitimately materialize as missing).
						checkPlaneCell(t, d, cols, i, numRow, symRow, want[i], a, b)
					}
				}
			}
		}
	}
}

// valueIdentical is struct equality except NaN == NaN for numerics.
func valueIdentical(a, b joblog.Value) bool {
	if a.Kind != b.Kind || a.Str != b.Str {
		return false
	}
	if a.Num != b.Num && !(math.IsNaN(a.Num) && math.IsNaN(b.Num)) {
		return false
	}
	return true
}

func checkPlaneCell(t *testing.T, d *Deriver, cols *joblog.Columns, i int,
	numRow []float64, symRow []uint64, want joblog.Value, a, b int) {
	t.Helper()
	rawIdx, kind := d.RawOf(i)
	alienPair := cols.Col(rawIdx).Alien(a) || cols.Col(rawIdx).Alien(b)
	if off := d.NumOffset(i); off >= 0 {
		got := numRow[off]
		switch {
		case want.Kind == joblog.Numeric:
			if got != want.Num && !(math.IsNaN(got) && math.IsNaN(want.Num)) {
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
	got := symRow[d.SymOffset(i)]
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
// materialization: once the columnar view and the matrix exist, filling a
// row — missing and alien cells included — touches no allocator, neither
// through PairMatrix.Fill nor through MaterializeInto on scratch rows.
func TestMaterializeDoesNotAllocate(t *testing.T) {
	log := randLog(7, 12)
	cols := log.Columns()
	d := NewDeriver(log.Schema, Level3)
	n := log.Len()
	m := d.NewPairMatrix(n * n)
	numRow, symRow := make([]float64, d.numW), make([]uint64, d.symW)
	allocs := testing.AllocsPerRun(20, func() {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				m.Fill(cols, a*n+b, a, b)
				d.MaterializeInto(cols, a, b, numRow, symRow)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("materializing %d pairs allocates %v times per run, want 0", n*n, allocs)
	}
}
