package core

// Cross-checks of the matrix-row bitmap kernels against the per-row
// evaluator they replaced: fillRange must equal eval bit for bit, the
// bitmapCache must memoize per atom identity and be independent of the
// worker count, the bitmap prefix compose must equal evalPrefix, and the
// fused AND-popcount scoring must equal a per-pair walk without
// allocating.

import (
	"math"
	"math/rand"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// bitmapFixture materializes a pair matrix over a log with missing
// cells, so both planes carry NaN/MissingSym rows the kernels must
// reject.
func bitmapFixture(t *testing.T, nRecs int) (*features.Deriver, *joblog.Intern, *features.PairMatrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "x", Kind: joblog.Numeric},
		{Name: "site", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	sites := []string{"us-east", "us-west", "eu"}
	for i := 0; i < nRecs; i++ {
		var xv, sv joblog.Value
		if rng.Float64() < 0.15 {
			xv = joblog.None()
		} else {
			xv = joblog.Num(float64(rng.Intn(5)))
		}
		if rng.Float64() < 0.15 {
			sv = joblog.None()
		} else {
			sv = joblog.Str(sites[rng.Intn(len(sites))])
		}
		log.MustAppend(&joblog.Record{ID: id(i), Values: []joblog.Value{
			xv, sv, joblog.Num(rng.Float64() * 100),
		}})
	}
	d := features.NewDeriver(log.Schema, features.Level3)
	cols := log.Columns()
	var refs []pairRef
	for i := 0; i < nRecs; i++ {
		for j := 0; j < nRecs; j++ {
			if i != j {
				refs = append(refs, pairRef{i, j})
			}
		}
	}
	m := d.NewPairMatrix(len(refs))
	for r, ref := range refs {
		m.Fill(cols, r, ref.a, ref.b)
	}
	return d, cols.Intern(), m
}

// bitmapAtoms enumerates atoms spanning every kernel path: numeric
// thresholds on each operator (NaN constant included), single- and
// multi-symbol nominal equality/inequality, never-interned constants,
// and kind-mismatched atoms that lower to constant false.
func bitmapAtoms() []pxql.Atom {
	var out []pxql.Atom
	for _, op := range []pxql.Op{pxql.OpEq, pxql.OpNe, pxql.OpLt, pxql.OpLe, pxql.OpGt, pxql.OpGe} {
		out = append(out,
			pxql.Atom{Feature: "x", Op: op, Value: joblog.Num(2)},
			pxql.Atom{Feature: "x", Op: op, Value: joblog.Num(math.NaN())},
		)
	}
	out = append(out,
		pxql.Atom{Feature: "x_issame", Op: pxql.OpEq, Value: joblog.Str("T")},
		pxql.Atom{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")},
		pxql.Atom{Feature: "x_compare", Op: pxql.OpNe, Value: joblog.Str("SIM")},
		pxql.Atom{Feature: "site", Op: pxql.OpEq, Value: joblog.Str("eu")},
		pxql.Atom{Feature: "site", Op: pxql.OpNe, Value: joblog.Str("never-logged")},
		pxql.Atom{Feature: "site_diff", Op: pxql.OpEq, Value: joblog.Str("(us-east→eu)")},
		pxql.Atom{Feature: "site_diff", Op: pxql.OpNe, Value: joblog.Str("(us-east→eu)")},
		pxql.Atom{Feature: "site", Op: pxql.OpEq, Value: joblog.Num(3)},  // kind mismatch → false
		pxql.Atom{Feature: "x", Op: pxql.OpEq, Value: joblog.Str("two")}, // kind mismatch → false
		pxql.Atom{Feature: "x", Op: pxql.OpEq, Value: joblog.None()},     // missing constant → false
	)
	return out
}

// bitmapCands lowers atoms over the fixture's schema into scoring
// candidates.
func bitmapCands(t *testing.T, d *features.Deriver, in *joblog.Intern, atoms []pxql.Atom) []candidate {
	t.Helper()
	cands := make([]candidate, len(atoms))
	for i, a := range atoms {
		fi, ok := d.Schema().Index(a.Feature)
		if !ok {
			t.Fatalf("fixture schema lost feature %q", a.Feature)
		}
		cands[i] = candidate{featIdx: fi, atom: a, ma: newMatrixAtom(d, in, fi, a)}
	}
	return cands
}

func TestFillRangeMatchesEval(t *testing.T) {
	d, in, m := bitmapFixture(t, 13) // 156 pairs: two full words + a partial tail
	for _, a := range bitmapAtoms() {
		featIdx, ok := d.Schema().Index(a.Feature)
		if !ok {
			t.Fatalf("fixture schema lost feature %q", a.Feature)
		}
		ma := newMatrixAtom(d, in, featIdx, a)
		sel := bitset.Make(m.N)
		ma.fillRange(m, 0, m.N, sel, nil)
		for row := 0; row < m.N; row++ {
			if sel.Get(row) != ma.eval(m, row) {
				t.Fatalf("atom %v: bit %d = %v, eval = %v", a, row, sel.Get(row), ma.eval(m, row))
			}
		}
		// Word-aligned partial fills must write the same bits.
		part := bitset.Make(m.N)
		for lo := 0; lo < m.N; lo += 64 {
			ma.fillRange(m, lo, min(lo+64, m.N), part, nil)
		}
		for w := range sel {
			if part[w] != sel[w] {
				t.Fatalf("atom %v: tiled fill word %d = %x, whole fill = %x", a, w, part[w], sel[w])
			}
		}
	}
}

func TestBitmapCacheComposeMatchesEvalPrefix(t *testing.T) {
	d, in, m := bitmapFixture(t, 11)
	atoms := []pxql.Atom{
		{Feature: "x", Op: pxql.OpLe, Value: joblog.Num(3)},
		{Feature: "site", Op: pxql.OpNe, Value: joblog.Str("eu")},
		{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("LT")},
	}
	mas := make([]matrixAtom, len(atoms))
	for i, a := range atoms {
		fi, _ := d.Schema().Index(a.Feature)
		mas[i] = newMatrixAtom(d, in, fi, a)
	}
	prefix := bitset.Make(m.N)
	prefix.Ones(m.N)
	sel := bitset.Make(m.N)
	for w := 1; w <= len(atoms); w++ {
		mas[w-1].fillRange(m, 0, m.N, sel, nil)
		prefix.AndWith(sel)
		want := 0
		for row := 0; row < m.N; row++ {
			if evalPrefix(mas, w, m, row) {
				want++
			}
		}
		if got := prefix.Count(); got != want {
			t.Fatalf("width %d: compose count = %d, evalPrefix = %d", w, got, want)
		}
	}
}

func TestBitmapCacheGetAllDeterministic(t *testing.T) {
	d, in, m := bitmapFixture(t, 12)
	cands := bitmapCands(t, d, in, bitmapAtoms())
	all := bitset.Make(m.N)
	all.Ones(m.N)
	base, _ := newBitmapCache(m, 1).getAll(cands, all)
	for _, workers := range []int{2, 8} {
		got, _ := newBitmapCache(m, workers).getAll(cands, all)
		for ci := range cands {
			for w := range base[ci] {
				if got[ci][w] != base[ci][w] {
					t.Fatalf("workers=%d: candidate %d word %d differs", workers, ci, w)
				}
			}
		}
	}
	// Cache identity: a second batch returns the same backing bitmaps.
	bc := newBitmapCache(m, 1)
	s1, _ := bc.getAll(cands, all)
	s2, _ := bc.getAll(cands, all)
	for ci := range cands {
		if &s1[ci][0] != &s2[ci][0] {
			t.Fatalf("candidate %d refilled despite cache hit", ci)
		}
	}
}

// TestGetAllSkipsDeadWords pins fillLive's contract: words with no live
// bit stay zero, live words carry exact bits.
func TestGetAllSkipsDeadWords(t *testing.T) {
	d, in, m := bitmapFixture(t, 13)
	live := bitset.Make(m.N)
	for i := 64; i < min(128, m.N); i++ {
		live.SetBit(i) // one live word in the middle
	}
	a := pxql.Atom{Feature: "x", Op: pxql.OpLe, Value: joblog.Num(3)}
	fi, _ := d.Schema().Index(a.Feature)
	ma := newMatrixAtom(d, in, fi, a)
	sels, _ := newBitmapCache(m, 1).getAll([]candidate{{featIdx: fi, atom: a, ma: ma}}, live)
	full := bitset.Make(m.N)
	ma.fillRange(m, 0, m.N, full, nil)
	for w := range sels[0] {
		switch {
		case live[w] == 0 && sels[0][w] != 0:
			t.Fatalf("dead word %d filled: %x", w, sels[0][w])
		case live[w] != 0 && sels[0][w] != full[w]:
			t.Fatalf("live word %d = %x, want %x", w, sels[0][w], full[w])
		}
	}
}

// scorePerPair is the reference scorer: it walks the working set row by
// row through matrixAtom.eval and counts the rows (and positive rows)
// the atom admits — what AndCount/AndCount3 over cached selections must
// reproduce.
func scorePerPair(ma *matrixAtom, m *features.PairMatrix, cur []int, labels []bool) (sat, satPos int) {
	for _, i := range cur {
		if ma.eval(m, i) {
			sat++
			if labels[i] {
				satPos++
			}
		}
	}
	return sat, satPos
}

// TestScorePathsAgree runs grow's scoring loop both ways for three
// rounds — every candidate scored over the working set, the round's
// chosen atom then narrowing it — and requires the fused AND-popcounts
// over cached bitmaps to equal the per-pair reference on every count.
func TestScorePathsAgree(t *testing.T) {
	d, in, m := bitmapFixture(t, 40) // 1560 pairs, missing cells included
	rng := rand.New(rand.NewSource(29))
	labels := make([]bool, m.N)
	for i := range labels {
		labels[i] = rng.Intn(2) == 0
	}
	pos := bitset.FromBools(labels)
	cands := bitmapCands(t, d, in, bitmapAtoms())
	curBits := bitset.Make(m.N)
	curBits.Ones(m.N)
	cur := make([]int, m.N)
	for i := range cur {
		cur[i] = i
	}
	bc := newBitmapCache(m, 0)
	// Rounds narrow by x_compare != SIM, site != never-logged, x_compare = GT.
	for round, chosen := range []int{14, 16, 13} {
		sels, _ := bc.getAll(cands, curBits)
		for ci := range cands {
			sat, satPos := scorePerPair(&cands[ci].ma, m, cur, labels)
			if got := bitset.AndCount(sels[ci], curBits); got != sat {
				t.Fatalf("round %d %v: bitmap sat = %d, per-pair = %d", round, cands[ci].atom, got, sat)
			}
			if got := bitset.AndCount3(sels[ci], curBits, pos); got != satPos {
				t.Fatalf("round %d %v: bitmap satPos = %d, per-pair = %d", round, cands[ci].atom, got, satPos)
			}
		}
		var next []int
		for _, i := range cur {
			if cands[chosen].ma.eval(m, i) {
				next = append(next, i)
			}
		}
		if len(next) == 0 || len(next) == len(cur) {
			t.Fatalf("round %d: %v narrows %d rows to %d, the rounds would repeat", round, cands[chosen].atom, len(cur), len(next))
		}
		cur = next
		curBits.AndWith(sels[chosen])
	}
}

// TestComposeDoesNotAllocate pins the steady-state compose step of
// grow's scoring loop: once the selections are cached, narrowing the
// prefix and counting it against the working set and the positives
// is word-AND + popcount and allocates nothing.
func TestComposeDoesNotAllocate(t *testing.T) {
	d, in, m := bitmapFixture(t, 40)
	cands := bitmapCands(t, d, in, bitmapAtoms()[:3])
	all := bitset.Make(m.N)
	all.Ones(m.N)
	pos := bitset.Make(m.N)
	for i := 0; i < m.N; i += 3 {
		pos.SetBit(i)
	}
	sels, _ := newBitmapCache(m, 1).getAll(cands, all)
	prefix := bitset.Make(m.N)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		prefix.Ones(m.N)
		for _, sel := range sels {
			sink += bitset.AndCount(sel, prefix) + bitset.AndCount3(sel, prefix, pos)
			prefix.AndWith(sel)
		}
	})
	if allocs != 0 {
		t.Errorf("compose over cached selections allocates %v times per run, want 0 (sink %d)", allocs, sink)
	}
}
