package core

// The walk kernels' per-tile work — what EnumSpec.RunWith and
// EvalSpec.RunWith do between walkTiles and their results — pinned two
// ways: the residual despite clause the planners ship must give exactly
// the results of the full clause, and a benchmark keeps the tile body's
// cost per pair in view.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// residualLog is a log whose blocking column "k" holds ks (kind as
// given) beside a nominal "g" cycling over three values and a duration
// that spreads pairs over GT, SIM and LT.
func residualLog(kind joblog.Kind, ks []joblog.Value) *joblog.Log {
	log := joblog.NewLog(joblog.NewSchema([]joblog.Field{
		{Name: "k", Kind: kind},
		{Name: "g", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	}))
	for i, k := range ks {
		log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{
			k, joblog.Str(fmt.Sprint("g", i%3)), joblog.Num(100 + 4*float64(i%7)),
		}})
	}
	return log
}

// repeatValues cycles vs up to n cells, so every class has several
// members and every group several ordered pairs.
func repeatValues(n int, vs ...joblog.Value) []joblog.Value {
	out := make([]joblog.Value, n)
	for i := range out {
		out[i] = vs[i%len(vs)]
	}
	return out
}

// TestResidualDespiteEqualsFull is the contract of residualDespite: the
// planners drop a blocking conjunct from the clause they ship exactly
// when grouping proves it, and a walk of the same groups under the
// residual returns what a walk under the full clause returns — for
// enumeration and evaluation, exact and thinned, with zone pruning and
// seek filtering on and off — which, when exact, is what the naive
// oracle reads off the definitions.
func TestResidualDespiteEqualsFull(t *testing.T) {
	num, str, none := joblog.Num, joblog.Str, joblog.None()
	kSame := pxql.Atom{Feature: "k_issame", Op: pxql.OpEq, Value: features.ValT}
	gSame := pxql.Atom{Feature: "g_issame", Op: pxql.OpEq, Value: features.ValT}
	seekable := pxql.Atom{Feature: "duration", Op: pxql.OpGe, Value: num(104)}
	for _, tc := range []struct {
		name    string
		log     *joblog.Log
		despite pxql.Predicate
		kept    pxql.Predicate // the residual the planner must ship
	}{
		{"nominal", residualLog(joblog.Nominal, repeatValues(40, str("a"), str("b"), str("c"), str("a"))),
			pxql.Predicate{kSame, gSame}, nil},
		{"nominal with a seekable atom", residualLog(joblog.Nominal, repeatValues(40, str("a"), str("b"))),
			pxql.Predicate{kSame, seekable}, pxql.Predicate{seekable}},
		{"numeric, tight components", residualLog(joblog.Numeric, repeatValues(40, num(100), num(105), num(200), num(210), num(-7))),
			pxql.Predicate{kSame}, nil},
		// 0.95–1.0–1.08–1.17 chains into one component whose ends are not
		// similar: the group over-includes and only the atom tells.
		{"numeric, loose chain", residualLog(joblog.Numeric, repeatValues(40, num(0.95), num(1.0), num(1.08), num(1.17), num(50))),
			pxql.Predicate{kSame}, pxql.Predicate{kSame}},
		// An infinity is similar to every finite value and not to itself.
		{"numeric, +Inf", residualLog(joblog.Numeric, repeatValues(30, num(1), num(math.Inf(1)), num(1000), num(math.Inf(1)))),
			pxql.Predicate{kSame}, pxql.Predicate{kSame}},
		{"numeric, -Inf", residualLog(joblog.Numeric, repeatValues(30, num(5), num(math.Inf(-1)), num(5.1))),
			pxql.Predicate{kSame}, pxql.Predicate{kSame}},
		{"missing and NaN cells", residualLog(joblog.Numeric, repeatValues(40, num(100), none, num(104), num(math.NaN()), num(300))),
			pxql.Predicate{kSame, gSame}, nil},
		{"missing nominal cells", residualLog(joblog.Nominal, repeatValues(40, str("a"), none, str("b"), str("a"))),
			pxql.Predicate{kSame}, nil},
		// Alien cells: the planes hold what isSame compares (interned Str
		// for a nominal column — the empty string for every numeric alien —
		// and Num, zero for a string alien, for a numeric one), so grouping
		// proves the conjunct there too; the full clause takes the boxed
		// evaluator and must agree.
		{"alien cells, nominal column", residualLog(joblog.Nominal, repeatValues(40, str("a"), num(5), str(""), num(6), str("b"))),
			pxql.Predicate{kSame}, nil},
		{"alien cells, numeric column", residualLog(joblog.Numeric, repeatValues(40, num(100), str("x"), num(0), str("y"), num(101))),
			pxql.Predicate{kSame}, nil},
		// The blocking feature under any other operator or constant is not
		// a blocking conjunct and is never dropped.
		{"k_issame != T", residualLog(joblog.Nominal, repeatValues(30, str("a"), str("b"))),
			pxql.Predicate{{Feature: "k_issame", Op: pxql.OpNe, Value: features.ValT}, gSame},
			pxql.Predicate{{Feature: "k_issame", Op: pxql.OpNe, Value: features.ValT}}},
		{"k_issame = F", residualLog(joblog.Nominal, repeatValues(30, str("a"), str("b"))),
			pxql.Predicate{{Feature: "k_issame", Op: pxql.OpEq, Value: features.ValF}, gSame},
			pxql.Predicate{{Feature: "k_issame", Op: pxql.OpEq, Value: features.ValF}}},
	} {
		if got := residualDespite(tc.log, tc.despite); !reflect.DeepEqual(got, tc.kept) {
			t.Errorf("%s: residual despite %v, want %v", tc.name, got, tc.kept)
		}
		q := &pxql.Query{
			Despite:  tc.despite,
			Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: features.ValGT}},
			Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: features.ValSIM}},
		}
		x := &Explanation{Because: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpNe, Value: features.ValLT}}}
		data := &SliceData{Log: tc.log, Cols: tc.log.Columns()}
		walked := 0
		for _, maxPairs := range []int{0, 40} { // exact, and thinned below skipKeepP
			for sw := 0; sw < 4; sw++ {
				prune, seek := sw&1 != 0, sw&2 != 0
				name := fmt.Sprintf("%s maxPairs=%d prune=%v seek=%v", tc.name, maxPairs, prune, seek)
				groups, keepP := blockedGroupsOpt(tc.log, tc.despite, maxPairs, prune, seek)
				cut := cutGroupShards(groups, 1)[0]

				enum := PlanEnumShards(nil, tc.log, features.Level3, q, tc.despite, maxPairs, 1, 5)[0]
				enum.Groups, enum.KeepP = cut, keepP
				residual, err := enum.RunWith(data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				enum.Despite = tc.despite.Spec()
				full, err := enum.RunWith(data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(residual, full) {
					t.Errorf("%s: enumeration under the residual clause keeps %d pairs, under the full clause %d",
						name, len(residual.RefA), len(full.RefA))
				}
				walked += len(full.RefA)
				if maxPairs == 0 {
					ps := &pairPlanes{a: residual.RefA, b: residual.RefB, labels: residual.Labels}
					checkRelated(t, name, tc.log, q, tc.despite, ps, true)
				}

				eval := PlanEvalShards(nil, tc.log, features.Level3, q, x, maxPairs, 1, 5)[0]
				eval.Groups, eval.KeepP = cut, keepP
				residualCounts, err := eval.RunWith(data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				eval.Despite = tc.despite.Spec()
				fullCounts, err := eval.RunWith(data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if *residualCounts != *fullCounts {
					t.Errorf("%s: evaluation under the residual clause counts %+v, under the full clause %+v",
						name, *residualCounts, *fullCounts)
				}
				if m, _ := oracleMetrics(tc.log, features.Level3, q, x); maxPairs == 0 &&
					(residualCounts.Context != m.ContextPairs || residualCounts.Bec != m.BecausePairs) {
					t.Errorf("%s: evaluation counts %+v, Definitions 4–6 count %d context and %d because pairs",
						name, *residualCounts, m.ContextPairs, m.BecausePairs)
				}
			}
		}
		if walked == 0 {
			t.Errorf("%s: no walk kept a pair; the shape is untested", tc.name)
		}
	}
}

var walkKernelSink int

// BenchmarkWalkKernels times the tile body of EnumSpec.RunWith on the
// blocked template — all four atoms, the despite clause unreduced — over
// one full tile of pairs drawn from a 2 700-row group, the shape of
// pxbench's big_blocked. It must not allocate.
func BenchmarkWalkKernels(b *testing.B) {
	const rows = 2700
	rng := rand.New(rand.NewSource(1))
	log := joblog.NewLog(joblog.NewSchema([]joblog.Field{
		{Name: "numinstances", Kind: joblog.Numeric},
		{Name: "pigscript", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	}))
	for i := 0; i < rows; i++ {
		log.MustAppend(&joblog.Record{ID: fmt.Sprint("j", i), Values: []joblog.Value{
			joblog.Num(8), joblog.Str("simple-filter.pig"), joblog.Num(600 * math.Exp(0.3*rng.NormFloat64())),
		}})
	}
	q, err := pxql.Parse("DESPITE numinstances_issame = T AND pigscript_issame = T\nOBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM")
	if err != nil {
		b.Fatal(err)
	}
	cols := log.Columns()
	d := features.NewDeriver(log.Schema, features.Level3)
	cDes, cObs, cExp := q.Despite.Compile(d, cols), q.Observed.Compile(d, cols), q.Expected.Compile(d, cols)
	ai, bi := make([]int, pairBlock), make([]int, pairBlock)
	for k := range ai {
		ai[k], bi[k] = rng.Intn(rows), rng.Intn(rows)
	}
	dS, oS, eS := bitset.Make(pairBlock), bitset.Make(pairBlock), bitset.Make(pairBlock)
	var tile pxql.Tile
	tile.Bind(pairBlock, cDes, cObs, cExp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tile.Reset(ai, bi)
		dS.Ones(pairBlock)
		cDes.AndTile(&tile, dS)
		oS.CopyFrom(dS)
		cObs.AndTile(&tile, oS)
		eS.CopyFrom(dS)
		cExp.AndTile(&tile, eS)
		walkKernelSink += oS.Count() + eS.Count()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairBlock, "ns/pair")
}
