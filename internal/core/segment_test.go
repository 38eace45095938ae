package core

// Equivalence suite for planning across seal boundaries: plans run over
// a store snapshot's shipped slices — one hashed slice per segment,
// group members indexing their concatenation — must merge to exactly the serial walk
// over the static flat log (itself checked against the oracle) at every
// shard count, seal threshold, and sampling mode, including seal
// boundaries that straddle blocking groups.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// storeOver replays log's records through a segment store sealing every
// sealEvery records and returns the snapshot log.
func storeOver(log *joblog.Log, sealEvery int) *joblog.Log {
	st := joblog.NewStore(log.Schema, sealEvery)
	for _, r := range log.Records {
		st.MustAppend(r)
	}
	return st.Snapshot().Log()
}

var segSealEveries = []int{5, 17, 40, 200} // several segments + tail ... single tail view

func TestPlanEnumShardsOverMatchesStatic(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(21)))
	q := blockedQuery()
	for _, maxPairs := range []int{0, 500} {
		pairSeed := stats.DeriveSeed(5, "seg-test")
		want := enumLocal(t, log, q, q.Despite, maxPairs, pairSeed, serialExec)
		checkRelated(t, fmt.Sprintf("maxPairs=%d static", maxPairs), log, q, q.Despite, want, maxPairs == 0)
		for _, sealEvery := range segSealEveries {
			snapLog := storeOver(log, sealEvery)
			if got, want := len(LogSlices(snapLog)), (log.Len()+sealEvery-1)/sealEvery; got != want {
				t.Fatalf("seal=%d: the snapshot ships %d slices, want one per segment (%d)", sealEvery, got, want)
			}
			for _, nShards := range []int{1, 2, 7} {
				name := fmt.Sprintf("maxPairs=%d seal=%d shards=%d", maxPairs, sealEvery, nShards)
				specs := PlanEnumShards(snapLog, features.Level3, q, q.Despite, maxPairs, nShards, pairSeed)
				if len(specs) != nShards {
					t.Fatalf("%s: planned %d specs", name, len(specs))
				}
				refs, labels := runPlan(t, snapLog, specs)
				if !reflect.DeepEqual(refs, want.refs()) || !reflect.DeepEqual(labels, want.labels) {
					t.Errorf("%s: segmented plan output differs from the serial walk (%d pairs vs %d)",
						name, len(refs), want.len())
				}
			}
		}
	}
}

func TestPlanEvalShardsOverMatchesStatic(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(23)))
	q := blockedQuery()
	x := &Explanation{Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}}}
	serial, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 500, 3, serialExec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sealEvery := range segSealEveries {
		snapLog := storeOver(log, sealEvery)
		data := sliceView(t, snapLog)
		for _, nShards := range []int{1, 2, 7} {
			name := fmt.Sprintf("seal=%d shards=%d", sealEvery, nShards)
			specs := PlanEvalShards(snapLog, features.Level3, q, x, 500, nShards, stats.DeriveSeed(3, "evaluate"))
			var ctxPairs, exp, bec, obs int
			for si := range specs {
				res, err := specs[si].RunWith(data)
				if err != nil {
					t.Fatalf("%s: spec %d: %v", name, si, err)
				}
				ctxPairs += res.Context
				exp += res.Exp
				bec += res.Bec
				obs += res.ObsGivenBec
			}
			merged, err := metricsFromCounts(ctxPairs, exp, bec, obs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if merged != serial {
				t.Errorf("%s: merged metrics %+v differ from serial %+v", name, merged, serial)
			}

			// The public entry point with a runner must agree too.
			got, err := EvaluateExplanation(context.Background(), snapLog, features.Level3, q, x, 500, 3,
				Exec{Shards: nShards, Runner: serialEvalRunner{}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != serial {
				t.Errorf("%s: sharded metrics %+v differ from serial %+v", name, got, serial)
			}
		}
	}
}

// TestExplainerWithLayoutByteIdentical pins the end-to-end contract:
// a runner-backed explainer produces exactly the explanation of local
// execution, at several shard counts, over the flat log's own segments
// and over store snapshots at several seal thresholds.
func TestExplainerWithLayoutByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	log := twoFactorLog(90, rng)

	explain := func(l *joblog.Log, cfg Config) string {
		t.Helper()
		ex, err := NewExplainer(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := gtQuery(l, ex.d)
		if q == nil {
			t.Fatal("no pair of interest")
		}
		x, err := ex.ExplainWithDespite(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return x.String()
	}

	base := explain(log, Config{Width: 3, DespiteWidth: 2, Seed: 13, MaxPairs: 2000})
	for _, sealEvery := range []int{0, 17, 40} { // 0: the flat log's own segments
		snapLog := log
		if sealEvery > 0 {
			snapLog = storeOver(log, sealEvery)
		}
		for _, nShards := range []int{1, 2, 7} {
			got := explain(snapLog, Config{Width: 3, DespiteWidth: 2, Seed: 13, MaxPairs: 2000,
				Exec: Exec{Shards: nShards, Runner: serialEvalRunner{}}})
			if got != base {
				t.Errorf("seal=%d shards=%d: sharded explanation differs:\n%s\nvs local execution:\n%s",
					sealEvery, nShards, got, base)
			}
		}
	}
}

// TestCombineSlicesEqualsFlatColumns: what a worker walks — a
// snapshot's slices decoded one at a time and concatenated by
// joblog.Concat — is the coordinator's own columnar view plane for plane: the same IDs, symbol numbering, numeric
// bits, missing cells and boxed values, whatever the seal
// threshold cut the log into.
func TestCombineSlicesEqualsFlatColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		log := oracleLog(rng)
		want := log.Columns()
		for _, sealEvery := range []int{1, 4, 9, 100} {
			data := sliceView(t, storeOver(log, sealEvery))
			got := data.Columns()
			name := fmt.Sprintf("trial %d seal=%d", trial, sealEvery)
			if data.Records != nil {
				t.Fatalf("%s: the combined log is not plane-backed", name)
			}
			if got.Len() != want.Len() || !reflect.DeepEqual(got.Intern().Strings(), want.Intern().Strings()) {
				t.Fatalf("%s: %d rows interning %q, want %d rows interning %q", name,
					got.Len(), got.Intern().Strings(), want.Len(), want.Intern().Strings())
			}
			for f := 0; f < log.Schema.Len(); f++ {
				g, w := got.Col(f), want.Col(f)
				if g.Kind != w.Kind || !reflect.DeepEqual(g.Sym, w.Sym) ||
					!reflect.DeepEqual(g.Miss, w.Miss) || len(g.Num) != len(w.Num) {
					t.Fatalf("%s: field %d planes differ", name, f)
				}
				for i := 0; i < want.Len(); i++ {
					if w.Num != nil && math.Float64bits(g.Num[i]) != math.Float64bits(w.Num[i]) {
						t.Fatalf("%s: field %d row %d differs", name, f, i)
					}
					if gv, wv := got.Value(i, f), want.Value(i, f); gv.Kind != wv.Kind || gv.Str != wv.Str ||
						math.Float64bits(gv.Num) != math.Float64bits(wv.Num) {
						t.Fatalf("%s: field %d row %d reads %#v, want %#v", name, f, i, gv, wv)
					}
				}
			}
			for i := 0; i < want.Len(); i++ {
				if data.ID(i) != log.ID(i) {
					t.Fatalf("%s: row %d is %q, want %q", name, i, data.ID(i), log.ID(i))
				}
			}
		}
	}
}
