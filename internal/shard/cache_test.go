package shard_test

// Property tests for content-addressed slice shipping: whatever a
// worker holds — nothing, the slices of the frame before, or another
// log's — the log it executes against decodes to the same columns, intern
// tables included, so results are byte-identical whichever slices
// travel as references. References may only ever change bytes on the
// wire.

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/shard"
)

// encodeAny gobs a value for byte-level result comparison.
func encodeAny(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pipelineResults runs an enumeration and an evaluation plan through a
// runner and returns the gob bytes of the results.
func pipelineResults(t *testing.T, log *joblog.Log, runner core.ShardRunner, shards int, seed uint64) []byte {
	t.Helper()
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, shards, seed)
	enum, err := runner.RunEnum(core.LogSlices(log), specs)
	if err != nil {
		t.Fatal(err)
	}
	x := &core.Explanation{}
	evalSpecs := core.PlanEvalShards(log, features.Level3, q, x, 0, shards, seed)
	eval, err := runner.RunEval(core.LogSlices(log), evalSpecs)
	if err != nil {
		t.Fatal(err)
	}
	return append(encodeAny(t, enum), encodeAny(t, eval)...)
}

// TestSliceCacheBitEqualColumns pins the core property on the decode
// layer itself: decoding a slice twice (what a held slice hands the
// executor vs a fresh ship) yields bit-equal columns and intern tables.
func TestSliceCacheBitEqualColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		log := equivLog(10 + rng.Intn(40))
		w := log.Wire()
		slice := core.LogSlice{Hash: joblog.HashSlice(w), Log: w}
		d1, err := slice.Decode()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := slice.Decode()
		if err != nil {
			t.Fatal(err)
		}
		c1, c2 := d1.Columns(), d2.Columns()
		in1, in2 := c1.Intern(), c2.Intern()
		if in1.Len() != in2.Len() {
			t.Fatalf("round %d: intern tables differ in size: %d vs %d", round, in1.Len(), in2.Len())
		}
		for s := 0; s < in1.Len(); s++ {
			if in1.Str(uint32(s)) != in2.Str(uint32(s)) {
				t.Fatalf("round %d: intern symbol %d differs: %q vs %q", round, s, in1.Str(uint32(s)), in2.Str(uint32(s)))
			}
		}
		// The derived planes — the part execution actually reads — must
		// be bit-equal for every pair.
		dr := features.NewDeriver(d1.Schema, features.Level3)
		n := d1.Len()
		for a := 0; a < n && a < 6; a++ {
			for b := 0; b < n && b < 6; b++ {
				for f := 0; f < dr.Schema().Len(); f++ {
					if off := dr.NumOffset(f); off >= 0 {
						raw, _ := dr.RawOf(f)
						v1, v2 := features.BaseNum(c1.Col(raw), a, b), features.BaseNum(c2.Col(raw), a, b)
						if v1 != v2 && !(v1 != v1 && v2 != v2) { // NaN-tolerant
							t.Fatalf("round %d: num feature %d differs at (%d,%d)", round, f, a, b)
						}
					} else if dr.DeriveSym(c1, a, b, f) != dr.DeriveSym(c2, a, b, f) {
						t.Fatalf("round %d: sym feature %d differs at (%d,%d)", round, f, a, b)
					}
				}
			}
		}
	}
}

// TestSliceCacheStatesEquivalent pins the end-to-end property across a
// real worker pool: cold workers and workers holding the log's slices
// both produce the bytes of serial local execution.
func TestSliceCacheStatesEquivalent(t *testing.T) {
	log := equivLog(50)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)

	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
	t.Cleanup(pool.Close)
	for pass := 0; pass < 2; pass++ {
		if got := explainWith(t, log, q, 7, pool); got != want {
			t.Fatalf("pass %d diverges:\n--- got ---\n%s--- want ---\n%s", pass, got, want)
		}
	}
	if s := pool.Stats(); s.SliceHits == 0 {
		t.Errorf("warm pass recorded no slice hits: %+v", s)
	}
}

// TestSliceCacheEvictionAcrossSlices alternates two different logs
// through one worker, so every switch finds the worker holding the other
// log's slice and ships in full, pinning that the switches never leak
// one slice's columns into another's results.
func TestSliceCacheEvictionAcrossSlices(t *testing.T) {
	logA := equivLog(30)
	logB := equivLog(45)
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 1}
	t.Cleanup(pool.Close)
	wantA := pipelineResults(t, logA, specRunner{}, 5, 9)
	wantB := pipelineResults(t, logB, specRunner{}, 5, 9)
	const rounds = 3
	for round := 0; round < rounds; round++ {
		if got := pipelineResults(t, logA, pool, 5, 9); !bytes.Equal(got, wantA) {
			t.Fatalf("round %d: log A results changed across switches", round)
		}
		if got := pipelineResults(t, logB, pool, 5, 9); !bytes.Equal(got, wantB) {
			t.Fatalf("round %d: log B results changed across switches", round)
		}
	}
	// Each log is one slice: one payload per switch, every other frame a
	// reference.
	if s := pool.Stats(); s.SliceMisses != 2*rounds || s.SliceHits != s.FramesSent-2*rounds {
		t.Errorf("alternating logs shipped %d payloads and %d references in %d frames, want %d payloads",
			s.SliceMisses, s.SliceHits, s.FramesSent, 2*rounds)
	}
}
