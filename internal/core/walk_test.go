package core

// Test-side drivers for the one walk path (plan → run → merge), plus the
// local executor's cancellation contract: a one-spec plan on one
// goroutine is the serial walk the suites compare orders against, and
// the no-seek denominator comes from blockedGroupsOpt's own switch.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// serialExec is the reference executor: one spec, one goroutine, the
// coordinator's resident columns.
var serialExec = Exec{Parallelism: 1, Shards: 1}

// enumLocal runs one planned enumeration round of (q, despite) under ex.
func enumLocal(t testing.TB, log *joblog.Log, q *pxql.Query, despite pxql.Predicate,
	maxPairs int, seed uint64, ex Exec) *pairPlanes {

	t.Helper()
	ps, err := runEnumSpecs(context.Background(), ex, log,
		PlanEnumShards(log, features.Level3, q, despite, maxPairs, ex.shards(), seed))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.release()
	return ps.flatten(new(pairPlanes))
}

// chunked cuts flat planes into a pair set of len(cuts)+1 chunks at the
// given ascending offsets — what a round of that many specs would have
// returned.
func chunked(t testing.TB, p *pairPlanes, n int, cuts ...int) *pairSet {
	t.Helper()
	var results []EnumResult
	lo := 0
	for _, hi := range append(slices.Clip(cuts), p.len()) {
		results = append(results, EnumResult{RefA: p.a[lo:hi], RefB: p.b[lo:hi], Labels: p.labels[lo:hi]})
		lo = hi
	}
	ps, err := adoptResults(results, n, false)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// enumSwitched is the serial walk with seek filtering switchable — with
// it off, the denominator of the exactness tests. It is PlanEnumShards'
// one spec over blockedGroupsOpt's groups instead of blockedGroups'.
func enumSwitched(t testing.TB, log *joblog.Log, q *pxql.Query, maxPairs int, seed uint64, seek bool) *pairPlanes {
	t.Helper()
	spec := PlanEnumShards(log, features.Level3, q, q.Despite, maxPairs, 1, seed)[0]
	groups, keepP := blockedGroupsOpt(log, q.Despite, maxPairs, seek)
	spec.Groups, spec.KeepP = cutGroupShards(groups, 1)[0], keepP
	ps, err := runEnumSpecs(context.Background(), serialExec, log, []EnumSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.release()
	return ps.flatten(new(pairPlanes))
}

// checkRelated compares an engine pair set with the oracle: the same set
// when the walk was exact, a subset with the same labels when sampled.
func checkRelated(t *testing.T, name string, log *joblog.Log, q *pxql.Query, despite pxql.Predicate, ps *pairPlanes, exact bool) {
	t.Helper()
	got, want := sortedSet(ps), oracleRelated(log, features.Level3, q, despite)
	if exact {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine related set (%d pairs) differs from Definition 7 (%d pairs)", name, len(got), len(want))
		}
		return
	}
	in := make(map[oraclePair]bool, len(want))
	for _, p := range want {
		in[p] = true
	}
	for _, p := range got {
		if !in[p] {
			t.Errorf("%s: sampled pair %+v is not a labelled related pair of Definition 7", name, p)
			return
		}
	}
}

// requireRegime fails the test unless capping (log, despite) at maxPairs
// puts the Bernoulli walk in the wanted thinning regime of walkTiles —
// uncapped (keepP = 1), capped-dense (skipKeepP <= keepP < 1) or
// capped-skip (keepP < skipKeepP) — so a capped leg cannot drift onto the
// other sampler when a fixture changes.
func requireRegime(t *testing.T, log *joblog.Log, despite pxql.Predicate, maxPairs int, capped, skip bool) {
	t.Helper()
	if _, keepP, _ := blockedGroups(log, despite, maxPairs); (keepP < 1) != capped || skipSampled(keepP) != skip {
		t.Fatalf("maxPairs %d gives keepP %v; want capped=%v skip-sampled=%v", maxPairs, keepP, capped, skip)
	}
}

func samePairs(a, b *pairPlanes) bool {
	return reflect.DeepEqual(a.refs(), b.refs()) && reflect.DeepEqual(a.labels, b.labels)
}

// TestLocalExecutorStopsAtCancellation pins the local executor's
// cancellation contract for both spec kinds: a context cancelled from
// inside the first spec keeps every later spec from starting, and the
// batch returns context.Canceled rather than a partial merge.
func TestLocalExecutorStopsAtCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	res, err := runLocal(ctx, make([]EnumSpec, 5), 1, func(*EnumSpec) (*EnumResult, error) {
		ran++
		cancel()
		return &EnumResult{RefA: []int{0}, RefB: []int{1}, Labels: []bool{true}}, nil
	})
	if !errors.Is(err, context.Canceled) || res != nil || ran != 1 {
		t.Errorf("enum batch: ran %d of 5 specs, results %v, err %v; want 1, nil, context.Canceled", ran, res, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	ran = 0
	evals, err := runLocal(ctx, make([]EvalSpec, 5), 1, func(*EvalSpec) (*EvalResult, error) {
		ran++
		cancel()
		return &EvalResult{Context: 1}, nil
	})
	if !errors.Is(err, context.Canceled) || evals != nil || ran != 1 {
		t.Errorf("eval batch: ran %d of 5 specs, results %v, err %v; want 1, nil, context.Canceled", ran, evals, err)
	}

	// End to end, at several parallelisms: a cancelled caller gets the
	// bare context error from both walks.
	log := groupedLog(60, rand.New(rand.NewSource(3)))
	q := blockedQuery()
	for _, p := range []int{1, 2, 7} {
		ex := Exec{Parallelism: p}
		if _, err := runEnumSpecs(ctx, ex, log, PlanEnumShards(log, features.Level3, q, q.Despite, 0, ex.shards(), 1)); err != context.Canceled {
			t.Errorf("parallelism %d: cancelled enumeration returned %v", p, err)
		}
		if _, err := EvaluateExplanation(ctx, log, features.Level3, q, &Explanation{}, 0, 1, ex); err != context.Canceled {
			t.Errorf("parallelism %d: cancelled evaluation returned %v", p, err)
		}
	}
}
