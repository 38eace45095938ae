package core

// Tests for blocking-group zone pruning: enumeration must stay
// byte-identical with the indexes and pruner on.

import (
	"fmt"
	"math/rand"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// zoneSkewedLog builds a log blocked by `script` into nGroups groups of
// skewed sizes, where `cpus` is constant within each group (cpus =
// group % 10) — so a `cpus > 8.5` conjunct provably kills every group
// but the 9-cpu ones via zone maps — and duration = x.
func zoneSkewedLog(n, nGroups int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "script", Kind: joblog.Nominal},
		{Name: "cpus", Kind: joblog.Numeric},
		{Name: "x", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	for i := 0; i < n; i++ {
		// Skew group sizes harmonically: group k gets ~1/(k+1) of the mass.
		k := 0
		for r := rng.Float64() * harmonic(nGroups); r > 0; k++ {
			r -= 1 / float64(k+1)
		}
		if k > 0 {
			k--
		}
		x := 10 + rng.Float64()*1000
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("z%04d", i), Values: []joblog.Value{
			joblog.Str(fmt.Sprintf("script-%03d", k)),
			joblog.Num(float64(k % 10)),
			joblog.Num(x),
			joblog.Num(x),
		}})
	}
	return log
}

func harmonic(n int) float64 {
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	return h
}

func zoneQuery() *pxql.Query {
	return &pxql.Query{
		Despite: pxql.Predicate{
			{Feature: "script_issame", Op: pxql.OpEq, Value: features.ValT},
			{Feature: "cpus", Op: pxql.OpGt, Value: joblog.Num(8.5)},
		},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
}

// TestZonePruneExact pins the pruner's exactness contract: enumeration
// with zone-map group pruning is byte-identical to the unpruned walk —
// uncapped and Bernoulli-capped — while actually dropping groups.
func TestZonePruneExact(t *testing.T) {
	log := zoneSkewedLog(400, 40, rand.New(rand.NewSource(21)))
	q := zoneQuery()

	pruned, _ := blockedGroupsOpt(log, q.Despite, 0, true, false)
	all, _ := blockedGroupsOpt(log, q.Despite, 0, false, false)
	if len(pruned) >= len(all) {
		t.Fatalf("pruner dropped no groups (%d of %d kept); the fixture is toothless", len(pruned), len(all))
	}

	for _, maxPairs := range []int{0, 500} {
		base := enumSwitched(t, log, q, maxPairs, 77, false, false)
		checkRelated(t, fmt.Sprintf("maxPairs=%d unpruned", maxPairs), log, q, q.Despite, base, maxPairs == 0)
		got := enumLocal(t, log, q, q.Despite, maxPairs, 77, serialExec)
		if !samePairs(got, base) {
			t.Errorf("maxPairs=%d: pruned enumeration differs from unpruned (%d vs %d pairs)",
				maxPairs, got.len(), base.len())
		}
	}
}
