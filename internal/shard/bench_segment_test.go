package shard_test

// Segment-cache retention summary for CI. Unlike the other BENCH_
// artifacts this one carries a hard gate: after the store grows, a
// re-query at the new watermark must re-ship ONLY the slices the append
// created — every sealed segment the old watermark already had must hit
// the worker cache. Emitted as BENCH_segment.json by the shard CI leg:
//
//	BENCH_SEGMENT_JSON=$PWD/BENCH_segment.json go test -run TestBenchSegmentJSON ./internal/shard

import (
	"encoding/json"
	"os"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/shard"
)

func TestBenchSegmentJSON(t *testing.T) {
	path := os.Getenv("BENCH_SEGMENT_JSON")
	if path == "" {
		t.Skip("set BENCH_SEGMENT_JSON=<path> to emit the segment cache summary")
	}

	full := equivLog(400)
	st := joblog.NewStore(full.Schema, 64)
	for _, r := range full.Records[:300] {
		st.MustAppend(r)
	}
	// One worker so the hit/miss ledger is deterministic: every payload
	// ships exactly once, every later reference is a hit.
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 1}
	t.Cleanup(pool.Close)

	runEnum := func(snap *joblog.Snapshot) int {
		t.Helper()
		log := snap.Log()
		layout, err := core.NewSegmentLayout(snap.Segments())
		if err != nil {
			t.Fatal(err)
		}
		q := equivQuery(t, log)
		specs := core.PlanEnumShards(layout, log, features.Level3, q, q.Despite, false, 0, 4, 12345)
		results, err := pool.RunEnum(specs)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for i := range results {
			pairs += len(results[i].RefA)
		}
		return pairs
	}

	snap1 := st.Snapshot()
	runEnum(snap1)
	cold := pool.Stats()

	for _, r := range full.Records[300:] {
		st.MustAppend(r)
	}
	snap2 := st.Snapshot()

	// Ledger of what the append changed: hashes the old watermark already
	// shipped stay cached; only genuinely new slices may re-ship.
	shipped := map[string]bool{}
	for _, v := range snap1.Segments() {
		shipped[v.Hash] = true
	}
	newSlices, retained := 0, 0
	for _, v := range snap2.Segments() {
		if shipped[v.Hash] {
			retained++
		} else {
			newSlices++
		}
	}
	if retained == 0 {
		t.Fatal("bench log produced no retained sealed segments")
	}

	runEnum(snap2)
	warm := pool.Stats()

	missDelta := warm.SliceMisses - cold.SliceMisses
	hitDelta := warm.SliceHits - cold.SliceHits

	// The gates. A retained segment re-shipping would show up as a miss
	// beyond the append's new slices; a cold cache would show no hits.
	if missDelta != int64(newSlices) {
		t.Errorf("re-query after append shipped %d payloads, want exactly the %d new slices — a sealed segment re-shipped",
			missDelta, newSlices)
	}
	if hitDelta < int64(retained) {
		t.Errorf("re-query after append hit %d cached slices, want at least the %d retained segments",
			hitDelta, retained)
	}

	out := map[string]any{
		"records_before_append": snap1.Len(),
		"records_after_append":  snap2.Len(),
		"seal_every":            64,
		"segments_retained":     retained,
		"segments_new":          newSlices,
		"slice_misses_requery":  missDelta,
		"slice_hits_requery":    hitDelta,
		"slice_bytes_saved":     warm.SliceBytesSaved,
		"gate":                  "requery after append re-ships only new slices; retained sealed segments hit worker caches",
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: retained=%d new=%d hits=%d misses=%d", path, retained, newSlices, hitDelta, missDelta)
}
