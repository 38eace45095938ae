package shard_test

// Pipelined slice prefetch: PrefetchSlices must warm every worker's
// decoded-slice cache so later task frames ship stripped, must never
// change results — whether a prefetch landed, raced a task, or was
// dropped — and the full explanation pipeline must stay byte-identical
// with prefetching active on remote socket workers.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
)

// waitFor polls cond for up to two seconds — prefetch shipping is
// asynchronous by design, so counter assertions need a settle window.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPrefetchSlicesWarmsWorkers pins the counter contract end to end:
// an explicit prefetch ships each distinct slice to every worker
// exactly once (PrefetchSent), the tasks that follow ship stripped
// reference frames (SliceHits), each prefetched slice converts to a
// prefetch hit on first use (PrefetchHits), and the results are
// byte-identical to the specs' in-process execution.
func TestPrefetchSlicesWarmsWorkers(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	ex, err := core.NewExplainer(log, core.Config{Width: 1, Seed: 7, SampleSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 2
	snapLog := segmentedOver(log, 13)
	specs := core.PlanEvalShards(snapLog, features.Level3, q, x, 0, 6, 123)
	slices := core.LogSlices(snapLog)
	if len(slices) < 2 {
		t.Fatalf("fixture snapshot ships %d slices; need several", len(slices))
	}

	pool := socketPool(t, workers)
	pool.PrefetchSlices(slices)
	waitFor(t, "prefetch frames to land", func() bool {
		return pool.Stats().PrefetchSent == int64(workers*len(slices))
	})

	want, err := specRunner{}.RunEval(slices, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.RunEval(slices, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prefetched eval results diverge from in-process execution:\n got %+v\nwant %+v", got, want)
	}

	s := pool.Stats()
	if s.SliceMisses != 0 {
		t.Errorf("tasks re-shipped %d payloads despite a complete prefetch", s.SliceMisses)
	}
	if s.SliceHits != int64(len(specs)*len(slices)) {
		t.Errorf("slice hits = %d, want one per spec and slice (%d)", s.SliceHits, len(specs)*len(slices))
	}
	// Each prefetched (worker, slice) mark converts to at most one hit,
	// on that worker's first task referencing it; dynamic scheduling
	// decides how many workers actually touch each slice.
	if s.PrefetchHits < int64(len(slices)) || s.PrefetchHits > int64(workers*len(slices)) {
		t.Errorf("prefetch hits = %d, want within [%d, %d]", s.PrefetchHits, len(slices), workers*len(slices))
	}

	// Idempotence: prefetching shipped slices again is a no-op.
	pool.PrefetchSlices(slices)
	time.Sleep(20 * time.Millisecond)
	if again := pool.Stats(); again.PrefetchSent != s.PrefetchSent {
		t.Errorf("re-prefetch shipped %d extra frames", again.PrefetchSent-s.PrefetchSent)
	}
}

// TestPrefetchPipelineEquivalence is the race-the-tasks case: the full
// explanation pipeline (generated despite, two enumeration rounds,
// sharded evaluation) on remote socket workers issues prefetches
// concurrently with its own task rounds, and the output must stay
// byte-identical to the serial path whoever wins each race.
func TestPrefetchPipelineEquivalence(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)
	pool := socketPool(t, 2)
	for _, n := range []int{2, 7} {
		if got := explainWith(t, log, q, n, pool); got != want {
			t.Errorf("socket shards=%d with prefetch diverges from serial:\n--- got ---\n%s--- want ---\n%s", n, got, want)
		}
	}
	// Whether any prefetch wins its race and ships is scheduling-dependent;
	// the deterministic accounting is pinned above.
}
