package core

import (
	"context"
	"fmt"
	"math/rand"
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
	// Exercise both the uncapped and the subsampled (counter-based keep)
	// paths.
	for _, maxPairs := range []int{0, 300} {
		base := enumLocal(t, log, q, q.Despite, false, maxPairs, 99, serialExec)
		checkRelated(t, fmt.Sprintf("maxPairs=%d serial", maxPairs), log, q, q.Despite, base, maxPairs == 0)
		for _, p := range []int{2, 4, 7, runtime.GOMAXPROCS(0)} {
			got := enumLocal(t, log, q, q.Despite, false, maxPairs, 99, Exec{Parallelism: p})
			if !samePairs(got, base) {
				t.Fatalf("maxPairs=%d: enumeration at parallelism %d differs from serial (%d vs %d pairs)",
					maxPairs, p, len(got.refs), len(base.refs))
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
	base, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 500, 3, serialExec)
	if err != nil {
		t.Fatal(err)
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

// Distinct blocking tuples must never share a key, whatever bytes the
// values contain (the old \x1f separator aliased values containing the
// separator byte).
func TestBlockKeyCollisionProof(t *testing.T) {
	mk := func(a, b string) *joblog.Record {
		return &joblog.Record{ID: a + "|" + b, Values: []joblog.Value{joblog.Str(a), joblog.Str(b)}}
	}
	cases := [][2]*joblog.Record{
		{mk("x\x1f", "y"), mk("x", "\x1fy")},
		{mk("x", "y"), mk("xy", "")},
		{mk("1:3", "a"), mk("1", "3:a")},
		{mk("", "ab"), mk("a", "b")},
	}
	key := func(r *joblog.Record) string {
		k, ok := appendBlockKey(nil, r, []int{0, 1})
		if !ok {
			t.Fatalf("record %q rendered as unblockable", r.ID)
		}
		return string(k)
	}
	for _, c := range cases {
		k1, k2 := key(c[0]), key(c[1])
		if k1 == k2 {
			t.Errorf("records %q and %q alias to block key %q", c[0].ID, c[1].ID, k1)
		}
	}
	// Same tuple must still map to the same key.
	if key(mk("u", "v")) != key(mk("u", "v")) {
		t.Error("identical tuples produced different keys")
	}
}
