package shard

import (
	"fmt"
	"maps"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

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

// scriptQuery blocks on the script field.
var scriptQuery = &pxql.Query{Despite: pxql.Predicate{{Feature: "script_issame", Op: pxql.OpEq, Value: features.ValT}}}

// TestWorkerCombinesEachWatermarkOnce pins the worker's side of a
// batch: every task of a round carries the same slices, the pool strips
// all but the first frame to references, and the worker resolves those
// from the slices it holds and reuses one concatenated whole log — not
// one concatenation (N times the whole log at N shards) per spec.
func TestWorkerCombinesEachWatermarkOnce(t *testing.T) {
	log := batchLog(30)
	st := joblog.NewStore(log.Schema, 8)
	for _, r := range log.Records {
		st.MustAppend(r)
	}
	ss := core.LogSlices(st.Snapshot().Log())
	if len(ss) != 4 {
		t.Fatalf("fixture snapshot ships %d slices, want 4", len(ss))
	}
	specs := core.PlanEnumShards(log, features.Level3, scriptQuery, scriptQuery.Despite, 0, 7, 1)

	ws := new(workerState)
	held := map[string]bool{}
	var first *joblog.Log
	for i := range specs {
		frame := (&Task{Version: Version, Slices: ss, Enum: &specs[i]}).strippedWith(held)
		refs := 0
		for _, s := range frame.Slices {
			if s.Ref {
				refs++
			}
		}
		if want := len(held); refs != want {
			t.Fatalf("spec %d: %d slices stripped to references, want %d", i, refs, want)
		}
		if res := ws.dispatch(frame); res.Err != "" {
			t.Fatalf("spec %d: %s", i, res.Err)
		}
		if first == nil {
			first = ws.log
		}
		if ws.log != first {
			t.Errorf("spec %d got its own concatenated log; a worker must combine a watermark once", i)
		}
		for _, s := range ss {
			held[s.Hash] = true
		}
	}
	if first.Len() != log.Len() {
		t.Errorf("concatenated log holds %d records, want %d", first.Len(), log.Len())
	}

	// A reference the worker does not hold is an error result, never a
	// re-ship request, and it leaves the worker holding nothing.
	spec := &core.EnumSpec{Level: features.Level3}
	if res := ws.dispatch(&Task{Version: Version, Slices: []core.LogSlice{ss[0].AsRef()}, Enum: spec}); res.Err != "" {
		t.Errorf("reference to a held slice: %s", res.Err)
	}
	if res := ws.dispatch(&Task{Version: Version, Slices: []core.LogSlice{ss[1].AsRef()}, Enum: spec}); res.Err == "" || res.Enum != nil {
		t.Errorf("reference to a slice the last frame did not carry answered %+v, want an error", res)
	}
	if ws.held != nil || ws.log != nil {
		t.Errorf("an error result left the worker holding %d slices", len(ws.held))
	}
}

// stateDialer dials one in-proc worker whose state the test can read.
type stateDialer struct{ ws *workerState }

func (d stateDialer) Dial(stats *Stats) (*Conn, error) { return dialPipeWorker(stats, d.ws, nil), nil }

// TestWorkerHoldsLastFrameOnly drives one worker through the watermarks
// of a growing store — a seal threshold of 10 and appends of 3 rows, so
// the tail changes every time and a segment seals every few appends —
// and pins the rule on both ends of the connection: after each frame the
// worker holds exactly that frame's slices, and so does the pool's
// record of it. Superseded tails are dropped, not kept until some budget
// evicts them.
func TestWorkerHoldsLastFrameOnly(t *testing.T) {
	full := batchLog(40)
	st := joblog.NewStore(full.Schema, 10)
	ws := new(workerState)
	pool := &Pool{Dialer: stateDialer{ws}, Workers: 1}
	t.Cleanup(pool.Close)

	var prev map[string]bool
	watermarks := 0
	for at := 3; at <= full.Len(); at += 3 {
		for _, r := range full.Records[at-3 : at] {
			st.MustAppend(r)
		}
		log := st.Snapshot().Log()
		ss := core.LogSlices(log)
		want := map[string]bool{}
		for _, s := range ss {
			want[s.Hash] = true
		}
		before := pool.Stats()
		specs := core.PlanEnumShards(log, features.Level3, scriptQuery, scriptQuery.Despite, 0, 3, 1)
		if _, err := pool.RunEnum(ss, specs); err != nil {
			t.Fatalf("watermark %d: %v", log.Len(), err)
		}
		watermarks++
		for h := range want {
			if ws.held[h] == nil {
				t.Fatalf("watermark %d: the worker does not hold slice %.12s of the frame", log.Len(), h)
			}
		}
		if len(ws.held) != len(want) {
			t.Fatalf("watermark %d: the worker holds %d slices, want exactly the frame's %d", log.Len(), len(ws.held), len(want))
		}
		if ws.log.Len() != log.Len() {
			t.Fatalf("watermark %d: the worker's log holds %d records", log.Len(), ws.log.Len())
		}
		if got := pool.procs[0].held; !maps.Equal(got, want) {
			t.Fatalf("watermark %d: the pool records %d held slices, want the frame's %d", log.Len(), len(got), len(want))
		}
		// The first frame of the watermark ships what the last one did not
		// carry; everything else is a reference.
		shipped := 0
		for h := range want {
			if !prev[h] {
				shipped++
			}
		}
		if d := pool.Stats().SliceMisses - before.SliceMisses; d != int64(shipped) {
			t.Errorf("watermark %d shipped %d payloads, want the %d slices the last frame did not carry", log.Len(), d, shipped)
		}
		prev = want
	}
	if watermarks < 8 {
		t.Fatalf("drove %d watermarks, want at least 8", watermarks)
	}
}
