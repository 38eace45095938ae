package pxql

// Cross-checks of the compiled predicate evaluator against the
// interpreted EvalPair, including a fuzz target over the full
// parse → compile → eval path (per block and through a shared Tile),
// and a fuzz target over the parser and its printer. Run the fuzzers with
//
//	go test -fuzz FuzzCompiledPredicate ./internal/pxql
//	go test -fuzz FuzzParseQuery ./internal/pxql
//
// The two evaluators must agree on every ordered pair of every log; any
// divergence is a bug in the columnar engine. The printer must lose
// nothing the parser produced: Query.String() keys the server's
// explanation cache.

import (
	"math"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/stats"
)

// fuzzSchema mixes numeric and nominal fields.
func fuzzSchema() *joblog.Schema {
	return joblog.NewSchema([]joblog.Field{
		{Name: "n1", Kind: joblog.Numeric},
		{Name: "n2", Kind: joblog.Numeric},
		{Name: "s1", Kind: joblog.Nominal},
		{Name: "s2", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
}

// fuzzLog deterministically builds a small log from a seed. Cells draw
// from pools that include missing values, NaN, ±Inf and -0, and strings
// containing the diff arrow and parentheses (to exercise ambiguous
// "(x→y)" constants). The seed also picks, per column, whether it has no
// missing cell — which on a column drawn cell by cell holds only by luck
// — and a quarter of the logs run past 12 rows, so their ordered pairs
// fill more than two selection words.
func fuzzLog(seed uint64) *joblog.Log {
	nums := []float64{0, 1, -1, 2.5, 100, 0.10, 110, math.Inf(1), math.NaN(), math.Copysign(0, -1), math.Inf(-1)}
	strs := []string{"x", "y", "", "T", "F", "LT", "(x→y)", "a→b", "x)", "(x"}
	log := joblog.NewLog(fuzzSchema())
	shape := stats.SplitMix64(seed)
	n := int(shape%6) + 3
	if shape>>8%4 == 0 {
		n += 10
	}
	clean := shape >> 16 // bit f: column f has no missing cell
	ctr := seed
	next := func() uint64 {
		ctr++
		return stats.SplitMix64(ctr)
	}
	for i := 0; i < n; i++ {
		rec := &joblog.Record{ID: string(rune('a' + i)), Values: make([]joblog.Value, log.Schema.Len())}
		for f := 0; f < log.Schema.Len(); f++ {
			r := next()
			switch {
			case r%10 == 0 && clean>>uint(f)&1 == 0:
				rec.Values[f] = joblog.None()
			case log.Schema.Field(f).Kind == joblog.Numeric:
				rec.Values[f] = joblog.Num(nums[(r>>8)%uint64(len(nums))])
			default:
				rec.Values[f] = joblog.Str(strs[(r>>8)%uint64(len(strs))])
			}
		}
		log.MustAppend(rec)
	}
	return log
}

// checkCompiledAgainstInterpreted asserts that the compiled bitmap block
// evaluators agree with the interpreted EvalPair on every ordered pair
// of the log, including a block split at an arbitrary boundary (so
// partial tail words are exercised) and the seeded AndBlock pushdown
// form.
func checkCompiledAgainstInterpreted(t *testing.T, p Predicate, log *joblog.Log) {
	t.Helper()
	d := features.NewDeriver(log.Schema, features.Level3)
	cols := log.Columns()
	cp := p.Compile(d, cols)
	var ai, bi []int
	var want []bool
	for i, ra := range log.Records {
		for j, rb := range log.Records {
			ai, bi = append(ai, i), append(bi, j)
			want = append(want, p.EvalPair(d, ra, rb))
		}
	}
	// Whole-block bitmap vs the interpreted truth.
	sel := bitset.Make(len(ai))
	cp.EvalBlock(ai, bi, sel)
	for k := range ai {
		if sel.Get(k) != want[k] {
			ra, rb := log.Records[ai[k]], log.Records[bi[k]]
			t.Fatalf("EvalBlock bit %d = %v, interpreted = %v for %q on pair (%s=%v, %s=%v)",
				k, sel.Get(k), want[k], p, ra.ID, ra.Values, rb.ID, rb.Values)
		}
	}
	if got, wantN := sel.Count(), countTrue(want); got != wantN {
		t.Fatalf("EvalBlock popcount = %d, want %d (tail bits must stay clear)", got, wantN)
	}
	// Split blocks (odd boundary) composed by AndBlock over an all-ones
	// seed must agree too.
	cut := len(ai)/2 + 1
	if cut > len(ai) {
		cut = len(ai)
	}
	for _, blk := range [][2]int{{0, cut}, {cut, len(ai)}} {
		lo, hi := blk[0], blk[1]
		if hi <= lo {
			continue
		}
		part := bitset.Make(hi - lo)
		part.Ones(hi - lo)
		cp.AndBlock(ai[lo:hi], bi[lo:hi], part)
		for k := lo; k < hi; k++ {
			if part.Get(k-lo) != want[k] {
				t.Fatalf("AndBlock[%d:%d] bit %d = %v, interpreted = %v for %q",
					lo, hi, k-lo, part.Get(k-lo), want[k], p)
			}
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func FuzzCompiledPredicate(f *testing.F) {
	seeds := []string{
		"n1_issame = T AND s1_issame = F",
		"n1_compare = GT",
		"n2_compare = SIM AND s2_diff = '(x→y)'",
		"s1_diff = '((x→y)→y)'",
		"s1_diff != '(x→x)'",
		"n1 <= 2.5 AND n2 > 0",
		"duration_compare = LT AND s1 = x",
		"s1 != zzz",
		"n1 = NaN",
		"nosuchfeature = T",
		"s1_issame != T AND n1_issame = F",
		"s2 = ''",
	}
	for _, s := range seeds {
		f.Add(s, uint64(1))
		f.Add(s, uint64(42))
	}
	f.Fuzz(func(t *testing.T, src string, logSeed uint64) {
		p, err := ParsePredicate(src)
		if err != nil {
			t.Skip()
		}
		log := fuzzLog(logSeed)
		checkCompiledAgainstInterpreted(t, p, log)
		// The same clause three times over: every code-kernel column of
		// it has two readers and so a shared plane.
		checkTileAgainstBlocks(t, &Tile{}, [3]Predicate{p, p, p}, log)
	})
}

// TestCompiledMatchesInterpreted pins the tricky compile-time decisions
// without relying on the fuzzer: unknown features, missing and
// kind-mismatched constants, ordered operators on nominal features,
// non-interned constants under != , and ambiguous diff constants.
func TestCompiledMatchesInterpreted(t *testing.T) {
	preds := []Predicate{
		{{Feature: "nosuch", Op: OpEq, Value: joblog.Str("T")}},
		{{Feature: "n1_issame", Op: OpEq, Value: joblog.None()}},
		{{Feature: "n1_issame", Op: OpLt, Value: joblog.Str("T")}},
		{{Feature: "n1_issame", Op: OpEq, Value: joblog.Num(1)}},
		{{Feature: "n1", Op: OpEq, Value: joblog.Str("x")}},
		{{Feature: "n1", Op: OpNe, Value: joblog.Num(math.NaN())}},
		{{Feature: "n1", Op: OpLe, Value: joblog.Num(2.5)}},
		{{Feature: "s1", Op: OpNe, Value: joblog.Str("never-logged")}},
		{{Feature: "s1", Op: OpEq, Value: joblog.Str("never-logged")}},
		{{Feature: "s1_diff", Op: OpEq, Value: joblog.Str("(x→y)")}},
		{{Feature: "s1_diff", Op: OpEq, Value: joblog.Str("((x→y)→y)")}},
		{{Feature: "s1_diff", Op: OpNe, Value: joblog.Str("(a→b→c)")}},
		{{Feature: "s2_compare", Op: OpEq, Value: joblog.Str("GT")}},
		{{Feature: "n2_compare", Op: OpNe, Value: joblog.Str("SIM")}},
		{{Feature: "s1_issame", Op: OpEq, Value: joblog.Str("T")},
			{Feature: "n1_compare", Op: OpEq, Value: joblog.Str("GT")},
			{Feature: "n2", Op: OpGt, Value: joblog.Num(0)}},
	}
	for seed := uint64(0); seed < 25; seed++ {
		log := fuzzLog(seed)
		for _, p := range preds {
			checkCompiledAgainstInterpreted(t, p, log)
		}
	}
}

// checkTileAgainstBlocks pushes three predicates through one Tile — the
// shape of a walk kernel's tile body, so atoms over one column share its
// code plane — and requires every selection to equal, bit for bit, the
// predicate's own EvalBlock over the same pairs and the interpreted
// EvalPair. The second predicate is pushed down over the first one's
// selection, so it fills the shared planes only where words are still
// live and the third, seeded with all ones, must fill the rest; the tile
// is reused across block lengths on both sides of a word boundary and at
// a full 4 096, so codes left by a longer block — or, the tile being
// bound afresh on every call, by an earlier walk — must never be read.
func checkTileAgainstBlocks(t *testing.T, tile *Tile, preds [3]Predicate, log *joblog.Log) {
	t.Helper()
	const full = 4096
	d := features.NewDeriver(log.Schema, features.Level3)
	cols := log.Columns()
	var cps [3]*CompiledPredicate
	for i, p := range preds {
		cps[i] = p.Compile(d, cols)
	}
	// Every ordered pair, self-pairs included, cycled past a full tile.
	// Each leg starts one pair further along, so no position holds the
	// pair it held in the block before.
	ai, bi := make([]int, full+8), make([]int, full+8)
	for k := range ai {
		ai[k], bi[k] = k/log.Len()%log.Len(), k%log.Len()
	}
	tile.Bind(full, cps[:]...)
	for leg, n := range []int{full, 1, 63, 64, 65, full} {
		a, b := ai[leg:leg+n], bi[leg:leg+n]
		tile.Reset(a, b)
		var want, got [3]bitset.Set
		for i, cp := range cps {
			want[i], got[i] = bitset.Make(n), bitset.Make(n)
			cp.EvalBlock(a, b, want[i])
			for k := range a {
				if w := preds[i].EvalPair(d, log.Records[a[k]], log.Records[b[k]]); want[i].Get(k) != w {
					t.Fatalf("EvalBlock bit %d = %v, interpreted = %v for %q at block length %d", k, want[i].Get(k), w, preds[i], n)
				}
			}
			got[i].Ones(n)
		}
		cps[0].AndTile(tile, got[0])
		got[1].CopyFrom(got[0])
		cps[1].AndTile(tile, got[1])
		want[1].AndWith(want[0])
		cps[2].AndTile(tile, got[2])
		for i := range cps {
			for k := range a {
				if got[i].Get(k) != want[i].Get(k) {
					t.Fatalf("tile selection %d bit %d = %v, independent EvalBlock = %v for %q at block length %d on pair (%d, %d)",
						i, k, got[i].Get(k), want[i].Get(k), preds[i], n, a[k], b[k])
				}
			}
			if got[i].Count() != want[i].Count() {
				t.Fatalf("tile selection %d popcount = %d, want %d at block length %d (tail bits must stay clear)",
					i, got[i].Count(), want[i].Count(), n)
			}
		}
	}
}

// TestTileSharesCodePlanes runs the tile leg over clause triples whose
// atoms meet on columns — compare against compare, issame against
// compare on a numeric column, issame against issame on a nominal one —
// and checks the corpus itself: for each of those columns the seeds must
// produce logs without and with missing cells (both on the code kernel,
// shared plane included), or one side goes untested. No issame or compare
// atom may reach the generic symbol loop: the code planes are their one
// encoding.
func TestTileSharesCodePlanes(t *testing.T) {
	atom := func(feature string, op Op, v string) Atom {
		return Atom{Feature: feature, Op: op, Value: joblog.Str(v)}
	}
	triples := [][3]Predicate{
		{ // a walk kernel's own shape: despite, observed, expected
			{atom("s1_issame", OpEq, "T")},
			{atom("duration_compare", OpEq, "GT")},
			{atom("duration_compare", OpEq, "SIM")},
		},
		{
			{atom("n1_compare", OpNe, "LT"), atom("s1_issame", OpNe, "T")},
			{atom("n1_issame", OpEq, "T"), atom("s2_diff", OpNe, "(x→y)")},
			{atom("s1_issame", OpEq, "F"), atom("n1_issame", OpEq, "F"), atom("n1_compare", OpEq, "GT")},
		},
		{ // constants no pair renders, a column only one atom reads, a base atom
			{atom("n2_compare", OpEq, "T"), atom("n2_issame", OpNe, "SIM")},
			{atom("n2_compare", OpNe, "nope"), atom("s2_issame", OpEq, "T")},
			{atom("n2_issame", OpEq, "T"), {Feature: "n1", Op: OpLe, Value: joblog.Num(2.5)}},
		},
	}
	type leg struct {
		kind    caKind
		missing bool // the column has a missing cell
	}
	legs := map[string]map[leg]int{}
	tile := &Tile{} // one tile rebound walk after walk, as the pooled one is
	for seed := uint64(0); seed < 40; seed++ {
		log := fuzzLog(seed)
		for _, preds := range triples {
			checkTileAgainstBlocks(t, tile, preds, log)
			d := features.NewDeriver(log.Schema, features.Level3)
			for _, p := range preds {
				for i, ca := range p.Compile(d, log.Columns()).atoms {
					f := p[i].Feature
					if _, family := features.ParseName(f); family != features.IsSame && family != features.Compare {
						continue
					}
					if legs[f] == nil {
						legs[f] = map[leg]int{}
					}
					missing := ca.col != nil && ca.col.Miss.Any()
					legs[f][leg{ca.kind, missing}]++
					if ca.kind == caSym {
						t.Fatalf("seed %d: %s compiled to the generic symbol loop", seed, f)
					}
				}
			}
		}
	}
	for _, feature := range []string{"s1_issame", "n1_issame", "n1_compare", "duration_compare"} {
		seen := legs[feature]
		clean, dirty := seen[leg{caCode, false}], seen[leg{caCode, true}]
		if clean == 0 || dirty == 0 {
			t.Errorf("%s compiled to the code kernel %d times on columns without missing cells and %d on columns with them; both legs must be reached",
				feature, clean, dirty)
		}
	}
}

// FuzzParseQuery feeds arbitrary text to the parser. Refusing it is fine;
// panicking is not, and whatever parses must print to a canonical string
// that parses back to the same query and prints the same again.
func FuzzParseQuery(f *testing.F) {
	for _, src := range []string{
		"FOR J1, J2 WHERE J1.ID = 'job-012' AND J2.ID = 'job-340'\nDESPITE numinstances_issame = T ∧ pigscript_issame = T\nOBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM",
		"OBSERVED f = '123' EXPECTED f = 123", // a nominal that looks numeric
		"OBSERVED f = '1e3' AND g = '-5' EXPECTED f = 1e3 AND g = -5",
		"OBSERVED f = '' EXPECTED f != \"\"",       // the empty string
		`OBSERVED f = 'a\\' EXPECTED f = 'a\\\'b'`, // a trailing backslash; backslash then quote
		"OBSERVED f_diff = 'a→b' EXPECTED f_diff = '(a→b)'",
		"OBSERVED f = 'a∧b' EXPECTED f = 'a AND b'",
		"OBSERVED f = 'two\nlines' EXPECTED f = 'tab\there' # trailing comment",
		`for a, b where a.JobID = "it's" and b.TaskID = 'x\'y\\' observed f = AND expected f = OBSERVED`,
		"OBSERVED blocksize >= 128MB AND x < 1e21 AND y = -0 EXPECTED blocksize <> 1.5kb",
		"OBSERVED x = 1e308TB EXPECTED x = 1", // overflows: refused
		"OBSERVED \xc3\xa9 = 1 EXPECTED f = \xff",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical string does not parse: %v\nsource:    %q\ncanonical: %q", err, src, canon)
		}
		if back.ID1 != q.ID1 || back.ID2 != q.ID2 {
			t.Fatalf("pair (%q, %q) came back as (%q, %q) from %q", q.ID1, q.ID2, back.ID1, back.ID2, canon)
		}
		for i, clause := range [][2]Predicate{{q.Despite, back.Despite}, {q.Observed, back.Observed}, {q.Expected, back.Expected}} {
			if len(clause[0]) != len(clause[1]) {
				t.Fatalf("clause %d: %d atoms came back as %d from %q", i, len(clause[0]), len(clause[1]), canon)
			}
			for j, a := range clause[0] {
				if b := clause[1][j]; a.Feature != b.Feature || a.Op != b.Op || !a.Value.Equal(b.Value) {
					t.Fatalf("clause %d atom %d: %#v came back as %#v from %q", i, j, a, b, canon)
				}
			}
		}
		if again := back.String(); again != canon {
			t.Fatalf("String is not a fixpoint: %q then %q", canon, again)
		}
	})
}
