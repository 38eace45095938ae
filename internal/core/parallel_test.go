package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// The pipeline's contract: parallelism is a throughput knob, never a
// semantics knob. Enumeration, explanation and evaluation must be
// byte-identical at every worker count — and, uncapped, equal to the
// oracle's definitions.

func TestEnumerateRelatedIdenticalAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	log := syntheticLog(80, rng)
	q := &pxql.Query{
		Despite:  pxql.Predicate{{Feature: "site_issame", Op: pxql.OpEq, Value: joblog.Str("T")}},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	// Exercise the uncapped walk and both subsampled ones: hashed per
	// pair, and — capped below the crossover — per-row skip streams.
	requireRegime(t, log, q.Despite, 300, true, false)
	requireRegime(t, log, q.Despite, 150, true, true)
	for _, maxPairs := range []int{0, 300, 150} {
		base := enumLocal(t, log, q, q.Despite, maxPairs, 99, serialExec)
		checkRelated(t, fmt.Sprintf("maxPairs=%d serial", maxPairs), log, q, q.Despite, base, maxPairs == 0)
		if base.len() < 30 {
			t.Fatalf("maxPairs=%d: the serial walk kept %d pairs; too few to compare", maxPairs, base.len())
		}
		for _, p := range []int{2, 4, 7, runtime.GOMAXPROCS(0)} {
			got := enumLocal(t, log, q, q.Despite, maxPairs, 99, Exec{Parallelism: p})
			if !samePairs(got, base) {
				t.Fatalf("maxPairs=%d: enumeration at parallelism %d differs from serial (%d vs %d pairs)",
					maxPairs, p, got.len(), base.len())
			}
		}
	}
}

func TestExplainIdenticalAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	log := twoFactorLog(90, rng)
	explain := func(p int) string {
		ex, err := NewExplainer(log, Config{Width: 3, DespiteWidth: 2, Seed: 13, MaxPairs: 2000, Exec: Exec{Parallelism: p}})
		if err != nil {
			t.Fatal(err)
		}
		q := gtQuery(log, ex.d)
		if q == nil {
			t.Fatal("no pair of interest")
		}
		x, err := ex.ExplainWithDespite(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return x.String()
	}
	base := explain(1)
	for _, p := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := explain(p); got != base {
			t.Errorf("explanation at parallelism %d differs:\n%s\nvs serial:\n%s", p, got, base)
		}
	}
}

func TestEvaluateIdenticalAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	log := syntheticLog(70, rng)
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)
	x := &Explanation{
		Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
	}
	requireRegime(t, log, q.Despite, 500, true, true) // the evaluation walk is skip-sampled
	base, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 500, 3, serialExec)
	if err != nil {
		t.Fatal(err)
	}
	if base.ContextPairs < 50 {
		t.Fatalf("the capped serial evaluation kept %d context pairs; too few to compare", base.ContextPairs)
	}
	for _, p := range []int{2, 4, 7, runtime.GOMAXPROCS(0)} {
		got, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 500, 3, Exec{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("metrics at parallelism %d = %+v, serial %+v", p, got, base)
		}
	}
}

// Distinct blocking tuples must never share a group, whatever bytes the
// values contain (a rendered key with a separator once aliased values
// containing the separator byte), and identical tuples always do.
func TestBlockKeyCollisionProof(t *testing.T) {
	tuples := [][2]string{
		{"x\x1f", "y"}, {"x", "\x1fy"},
		{"x", "y"}, {"xy", ""},
		{"1:3", "a"}, {"1", "3:a"},
		{"", "ab"}, {"a", "b"},
		{"x", "y"}, // the one repeat: joins record 2
	}
	log := joblog.NewLog(joblog.NewSchema([]joblog.Field{
		{Name: "a", Kind: joblog.Nominal}, {Name: "b", Kind: joblog.Nominal},
	}))
	recs := make([]int, len(tuples))
	for i, tp := range tuples {
		log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{joblog.Str(tp[0]), joblog.Str(tp[1])}})
		recs[i] = i
	}
	got := blockRecords(log.Columns(), recs, []int{0, 1})
	want := [][]int{{0}, {1}, {2, 8}, {3}, {4}, {5}, {6}, {7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("blocked %d tuples into %v, want %v", len(tuples), got, want)
	}
}
