package core

// Cross-checks of the matrix-row bitmap kernels and of the supports grow
// ranks by: fillRange must equal eval bit for bit and skip only dead
// words, every candidate's support must equal a per-pair walk, the
// winner's fill must narrow the working set to exactly its support, and
// the explanation's per-prefix diagnostics must equal evalPrefix counts
// over the training sample.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// bitmapFixture materializes a pair matrix over bitmapLog's log with
// missing cells, so every store carries missing rows the kernels must
// reject. It fills as an explanation does, so every base and diff column
// has its value index.
func bitmapFixture(t *testing.T, nRecs int) (*features.Deriver, *joblog.Intern, *features.PairMatrix) {
	t.Helper()
	log, refs := bitmapLog(nRecs)
	d := features.NewDeriver(log.Schema, features.Level3)
	cols := log.Columns()
	m := d.NewPairMatrix(len(refs))
	ai, bi := make([]int, len(refs)), make([]int, len(refs))
	for r, ref := range refs {
		ai[r], bi[r] = ref.a, ref.b
	}
	m.FillSample(cols, ai, bi, nil, 2)
	return d, cols.Intern(), m
}

// bitmapLog is bitmapFixture's log and its matrix rows' record pairs:
// every ordered pair of distinct records.
func bitmapLog(nRecs int) (*joblog.Log, []pairRef) {
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
	var refs []pairRef
	for i := 0; i < nRecs; i++ {
		for j := 0; j < nRecs; j++ {
			if i != j {
				refs = append(refs, pairRef{i, j})
			}
		}
	}
	return log, refs
}

// bitmapAtoms enumerates atoms spanning every kernel path: numeric
// thresholds on each operator (NaN constant included), single- and
// multi-symbol nominal equality/inequality, never-interned constants,
// kind-mismatched atoms that lower to constant false, and each issame and
// compare code on a numeric and a nominal raw's code planes and without
// storage.
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
	// Every code of the issame and compare families under both operators:
	// code planes for both raws' issame and the numeric raw's compare, no
	// storage at all for the nominal raw's compare and the numeric raw's
	// diff (false everywhere).
	for _, op := range []pxql.Op{pxql.OpEq, pxql.OpNe} {
		for _, v := range []string{"T", "F", "LT"} {
			out = append(out,
				pxql.Atom{Feature: "x_issame", Op: op, Value: joblog.Str(v)},
				pxql.Atom{Feature: "site_issame", Op: op, Value: joblog.Str(v)})
		}
		for _, v := range []string{"LT", "SIM", "GT", "T"} {
			out = append(out,
				pxql.Atom{Feature: "x_compare", Op: op, Value: joblog.Str(v)},
				pxql.Atom{Feature: "site_compare", Op: op, Value: joblog.Str(v)})
		}
		out = append(out, pxql.Atom{Feature: "x_diff", Op: op, Value: joblog.Str("(1→2)")})
	}
	return out
}

// allRows is the live mask of every row of an n-row matrix.
func allRows(n int) bitset.Set {
	s := bitset.Make(n)
	s.Ones(n)
	return s
}

// TestFillRangeMatchesEval holds each lowered atom's batched fill to its
// per-row eval, and eval to Atom.Eval on the boxed vector the row engine
// derives — over value planes, and over a matrix filled pair by pair,
// which has no value index, by the column loops.
func TestFillRangeMatchesEval(t *testing.T) {
	d, in, m := bitmapFixture(t, 13) // 156 pairs: two full words + a partial tail
	log, refs := bitmapLog(13)
	direct := d.NewPairMatrix(len(refs))
	for r, ref := range refs {
		direct.Fill(log.Columns(), r, ref.a, ref.b)
	}
	for _, a := range bitmapAtoms() {
		featIdx, ok := d.Schema().Index(a.Feature)
		if !ok {
			t.Fatalf("fixture schema lost feature %q", a.Feature)
		}
		ma := newMatrixAtom(d, in, featIdx, a)
		sel := bitset.Make(m.N)
		ma.fillRange(m, sel, allRows(m.N))
		for row, ref := range refs {
			if sel.Get(row) != ma.eval(m, row) {
				t.Fatalf("atom %v: bit %d = %v, eval = %v", a, row, sel.Get(row), ma.eval(m, row))
			}
			if boxed := a.Eval(d.Value(log.Records[ref.a], log.Records[ref.b], featIdx)); boxed != ma.eval(m, row) {
				t.Fatalf("atom %v: row %d evals %v, the boxed value %v", a, row, ma.eval(m, row), boxed)
			}
		}
		// The column loops of a matrix with no value index must write the
		// same bits.
		rows := bitset.Make(m.N)
		ma.fillRange(direct, rows, allRows(m.N))
		for w := range sel {
			if rows[w] != sel[w] {
				t.Fatalf("atom %v: word %d: column loop %x, value planes %x", a, w, rows[w], sel[w])
			}
		}
	}
}

// TestFillRangeSkipsDeadWords pins the live-word contract grow's winner
// fill relies on, on every kernel path and on both matrices: a word with
// no live bit keeps what the bitmap held, a word with one is exact.
func TestFillRangeSkipsDeadWords(t *testing.T) {
	d, in, m := bitmapFixture(t, 13)
	log, refs := bitmapLog(13)
	direct := d.NewPairMatrix(len(refs))
	for r, ref := range refs {
		direct.Fill(log.Columns(), r, ref.a, ref.b)
	}
	live := bitset.Make(m.N)
	live.SetBit(64) // one live bit in the middle word
	live.SetBit(m.N - 1)
	const stale = 0x5555555555555555
	for _, a := range bitmapAtoms() {
		fi, _ := d.Schema().Index(a.Feature)
		ma := newMatrixAtom(d, in, fi, a)
		for _, mat := range []*features.PairMatrix{m, direct} {
			full, sel := bitset.Make(m.N), bitset.Make(m.N)
			ma.fillRange(mat, full, allRows(m.N))
			for w := range sel {
				sel[w] = stale
			}
			ma.fillRange(mat, sel, live)
			for w := range sel {
				switch {
				case live[w] == 0 && sel[w] != stale:
					t.Fatalf("atom %v: dead word %d written: %x", a, w, sel[w])
				case live[w] != 0 && sel[w] != full[w]:
					t.Fatalf("atom %v: live word %d = %x, want %x", a, w, sel[w], full[w])
				}
			}
		}
	}
}

// scorePerPair is the reference scorer: it walks the working set row by
// row through matrixAtom.eval and counts the rows (and positive rows)
// the atom admits — the support a candidate must carry.
func scorePerPair(ma *matrixAtom, m *features.PairMatrix, cur []int, labels []bool) support {
	var s support
	for _, i := range cur {
		if ma.eval(m, i) {
			s.sat++
			if labels[i] {
				s.pos++
			}
		}
	}
	return s
}

// TestScorePathsAgree replays three rounds of growth over a matrix with
// missing cells: every candidate's support must equal the per-pair walk
// over the working set, and the winner's fill, live-masked by the working
// set, must narrow it to exactly the winner's support — the rows its
// per-row eval keeps — which grow reports as the prefix's.
func TestScorePathsAgree(t *testing.T) {
	log, refs := bitmapLog(40) // 1560 pairs, missing cells included
	rng := rand.New(rand.NewSource(29))
	ps := &pairPlanes{}
	for _, ref := range refs {
		ps.add(ref.a, ref.b, rng.Intn(2) == 0)
	}
	e, err := NewExplainer(log, Config{Exec: Exec{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var pairVec []joblog.Value
	for _, ref := range refs {
		if v := e.d.Vector(log.Records[ref.a], log.Records[ref.b]); !v[0].IsMissing() && !v[1].IsMissing() {
			pairVec = v
			break
		}
	}
	m := new(features.PairMatrix)
	fillMatrix(m, log, e.d, ps, e.scorableMask(nil, pairVec), 2)
	in := log.Columns().Intern()
	clause, prefix, err := e.grow(context.Background(), m, new(growScratch), ps.labels, pairVec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(clause) != 3 {
		t.Fatalf("grew %v, want three rounds", clause)
	}

	g := new(growScratch)
	pos := bitset.FromBools(ps.labels)
	curBits, sel := bitset.Make(m.N), bitset.Make(m.N)
	curBits.Ones(m.N)
	cur := make([]int, m.N)
	for i := range cur {
		cur[i] = i
	}
	for round, chosen := range clause {
		g.ws = workingSet{n: len(cur), bits: curBits, pos: pos}
		var win *candidate
		for _, c := range e.candidates(m, g, pairVec, clause[:round]) {
			ma := newMatrixAtom(e.d, in, c.featIdx, c.atom)
			if want := scorePerPair(&ma, m, cur, ps.labels); c.support != want {
				t.Fatalf("round %d %v: support %+v, per-pair %+v", round, c.atom, c.support, want)
			}
			if c.atom == chosen {
				win = &c
			}
		}
		if win == nil {
			t.Fatalf("round %d: %v is not a candidate", round, chosen)
		}
		ma := newMatrixAtom(e.d, in, win.featIdx, win.atom)
		ma.fillRange(m, sel, curBits)
		curBits.AndWith(sel)
		n, p := bitset.AndCounts(curBits, curBits, pos)
		if got := (support{n, p}); got != win.support || prefix[round] != win.support {
			t.Fatalf("round %d %v: the fill narrows to %+v, the winner's support is %+v, grow reports %+v", round, chosen, got, win.support, prefix[round])
		}
		next := cur[:0:0]
		for _, i := range cur {
			if ma.eval(m, i) {
				next = append(next, i)
			}
		}
		if len(next) != n {
			t.Fatalf("round %d %v: eval keeps %d rows, the fill %d", round, chosen, len(next), n)
		}
		cur = next
	}
}

// evalPrefix evaluates the conjunction of the first w lowered atoms on a
// row, one eval at a time.
func evalPrefix(mas []matrixAtom, w int, m *features.PairMatrix, row int) bool {
	for k := 0; k < w; k++ {
		if !mas[k].eval(m, row) {
			return false
		}
	}
	return true
}

// TestAtomsMatchEvalPrefix holds an explanation's per-prefix diagnostics,
// which grow reports from its winners' supports, to their definition:
// the precision and generality of each because-clause prefix counted by
// evalPrefix over the training sample, on the sweep's questions with and
// without a generated despite extension.
func TestAtomsMatchEvalPrefix(t *testing.T) {
	log := amplifiedSweep(t, 4)
	ctx := context.Background()
	atoms := 0
	for qi, q := range sweepQuestions(t, log, 4) {
		e, err := NewExplainer(log, Config{Seed: int64(qi)})
		if err != nil {
			t.Fatal(err)
		}
		a, b, err := e.bind(q)
		if err != nil {
			t.Fatal(err)
		}
		pairVec := e.d.Vector(a, b)
		in := log.Columns().Intern()
		for _, genDespite := range []bool{false, true} {
			x, err := e.explain(ctx, q, genDespite)
			if err != nil {
				t.Fatal(err)
			}
			ws := new(workspace)
			sample, _, _, err := e.trainingSample(ctx, q, q.Despite.And(x.Despite), "because", ws)
			if err != nil {
				t.Fatal(err)
			}
			m := e.materialize(ws, sample, pairVec)
			if len(x.Atoms) != len(x.Because) || m.N != x.SampleSize {
				t.Fatalf("question %d: %d atom stats for %v over %d pairs, the sample holds %d", qi, len(x.Atoms), x.Because, x.SampleSize, m.N)
			}
			mas := make([]matrixAtom, len(x.Because))
			for w, atom := range x.Because {
				fi, _ := e.d.Schema().Index(atom.Feature)
				mas[w] = newMatrixAtom(e.d, in, fi, atom)
			}
			for w := 1; w <= len(mas); w++ {
				var s support
				for row := 0; row < m.N; row++ {
					if evalPrefix(mas, w, m, row) {
						s.sat++
						if sample.labels[row] {
							s.pos++
						}
					}
				}
				want := AtomStats{Atom: x.Because[w-1], Generality: float64(s.sat) / float64(m.N)}
				if s.sat > 0 {
					want.Precision = float64(s.pos) / float64(s.sat)
				}
				if got := x.Atoms[w-1]; got != want {
					t.Errorf("question %d (despite %v) prefix %d: %+v, evalPrefix counts %+v", qi, genDespite, w, got, want)
				}
				atoms++
			}
		}
	}
	if atoms < 8 {
		t.Errorf("checked %d prefixes; the questions no longer grow clauses", atoms)
	}
}
