package shard

import (
	"fmt"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// Regression test for a zero budget that still cached (and served)
// zero-size slices.

func TestSliceCacheZeroBudgetCachesNothing(t *testing.T) {
	c := newSliceCache(0)
	d := &core.SliceData{}
	// The regression shape: an empty shard's slice estimates to 0 bytes,
	// so the old `size > budget` guard alone admitted it.
	c.put("empty-slice", d, 0)
	if got := c.get("empty-slice"); got != nil {
		t.Error("zero-budget cache served a zero-size slice")
	}
	c.put("real-slice", d, 100)
	if got := c.get("real-slice"); got != nil {
		t.Error("zero-budget cache served a positive-size slice")
	}
	if len(c.entries) != 0 || c.used != 0 {
		t.Errorf("zero-budget cache holds %d entries, %d bytes", len(c.entries), c.used)
	}
}

func TestSliceCachePutBounds(t *testing.T) {
	c := newSliceCache(100)
	d := &core.SliceData{}
	c.put("", d, 10)
	if len(c.entries) != 0 {
		t.Error("cached a slice with no hash")
	}
	c.put("too-big", d, 101)
	if c.get("too-big") != nil {
		t.Error("cached a slice bigger than the whole budget")
	}
	c.put("a", d, 60)
	c.put("b", d, 60) // must evict a
	if c.get("a") != nil {
		t.Error("eviction kept the older entry past the budget")
	}
	if c.get("b") == nil {
		t.Error("newest entry evicted")
	}
	if c.used != 60 {
		t.Errorf("used = %d, want 60", c.used)
	}
}

// batchLog is a tiny two-field log for in-package batch tests.
func batchLog(n int) *joblog.Log {
	log := joblog.NewLog(joblog.NewSchema([]joblog.Field{
		{Name: "script", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	}))
	for i := 0; i < n; i++ {
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("j%d", i),
			Values: []joblog.Value{joblog.Str(fmt.Sprint("s", i%2)), joblog.Num(float64(i))}})
	}
	return log
}

// TestWorkerCombinesEachWatermarkOnce pins the worker's side of a
// batch: every task of a round carries the same slices, the pool strips
// all but the first frame to references, and the worker resolves those
// from its cache and reuses one combined whole-log view — not one
// concatenation (N times the whole log at N shards) per spec.
func TestWorkerCombinesEachWatermarkOnce(t *testing.T) {
	log := batchLog(30)
	st := joblog.NewStore(log.Schema, 8)
	for _, r := range log.Records {
		st.MustAppend(r)
	}
	slices := core.LogSlices(st.Snapshot().Log())
	if len(slices) != 4 {
		t.Fatalf("fixture snapshot ships %d slices, want 4", len(slices))
	}
	q := &pxql.Query{Despite: pxql.Predicate{{Feature: "script_issame", Op: pxql.OpEq, Value: features.ValT}}}
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 7, 1)

	ws := newWorkerState()
	known := map[string]int{}
	var first *core.SliceData
	for i := range specs {
		frame, refd := (&Task{Slices: slices, Enum: &specs[i]}).strippedWith(known)
		if want := len(known); len(refd) != want {
			t.Fatalf("spec %d: %d slices stripped to references, want %d", i, len(refd), want)
		}
		d, miss, err := ws.load(frame)
		if err != nil || miss {
			t.Fatalf("spec %d: load: miss=%v err=%v", i, miss, err)
		}
		if first == nil {
			first = d
		}
		if d != first {
			t.Errorf("spec %d got its own combined view; a worker must combine a watermark once", i)
		}
		for _, s := range slices {
			known[s.Hash] = 0
		}
	}
	if first.Log.Len() != log.Len() {
		t.Errorf("combined view holds %d records, want %d", first.Log.Len(), log.Len())
	}

	// A reference the worker never received is a miss, not an error: the
	// coordinator re-ships.
	ref := &Task{Slices: []core.LogSlice{slices[0].AsRef()}, Enum: &core.EnumSpec{}}
	if _, miss, err := newWorkerState().load(ref); !miss || err != nil {
		t.Errorf("reference to an unseen slice: miss=%v err=%v, want a miss", miss, err)
	}
}
