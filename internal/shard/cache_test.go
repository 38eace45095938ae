package shard_test

// Property tests for content-addressed slice shipping: whatever the
// cache does — cold miss, warm hit, eviction under a tiny budget, or
// the cache disabled outright — the decoded columns a worker executes
// against are bit-equal to a fresh decode, intern tables included, so
// results are byte-identical in every cache state. The cache may only
// ever change bytes on the wire.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
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
	specs := core.PlanEnumShards(core.FlatLayout(log), log, features.Level3, q, q.Despite, 0, shards, seed)
	enum, err := runner.RunEnum(specs)
	if err != nil {
		t.Fatal(err)
	}
	x := &core.Explanation{}
	evalSpecs := core.PlanEvalShards(core.FlatLayout(log), log, features.Level3, q, x, 0, shards, seed)
	eval, err := runner.RunEval(evalSpecs)
	if err != nil {
		t.Fatal(err)
	}
	return append(encodeAny(t, enum), encodeAny(t, eval)...)
}

// TestSliceCacheBitEqualColumns pins the core property on the decode
// layer itself: decoding a slice twice (what a cache hit hands the
// executor vs a fresh ship) yields bit-equal columns and intern tables.
func TestSliceCacheBitEqualColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		log := equivLog(10 + rng.Intn(40))
		slice := core.NewLogSlice(log.Wire())
		d1, err := slice.Data()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := slice.Data()
		if err != nil {
			t.Fatal(err)
		}
		in1, in2 := d1.Cols.Intern(), d2.Cols.Intern()
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
		dr := features.NewDeriver(d1.Log.Schema, features.Level3)
		n := d1.Log.Len()
		for a := 0; a < n && a < 6; a++ {
			for b := 0; b < n && b < 6; b++ {
				for f := 0; f < dr.Schema().Len(); f++ {
					if off := dr.NumOffset(f); off >= 0 {
						v1, v2 := dr.DeriveNum(d1.Cols, a, b, f), dr.DeriveNum(d2.Cols, a, b, f)
						if v1 != v2 && !(v1 != v1 && v2 != v2) { // NaN-tolerant
							t.Fatalf("round %d: num feature %d differs at (%d,%d)", round, f, a, b)
						}
					} else if dr.DeriveSym(d1.Cols, a, b, f) != dr.DeriveSym(d2.Cols, a, b, f) {
						t.Fatalf("round %d: sym feature %d differs at (%d,%d)", round, f, a, b)
					}
				}
			}
		}
	}
}

// TestSliceCacheStatesEquivalent pins the end-to-end property across a
// real worker pool: a cold cache, a warm cache and an eviction-thrashing
// tiny cache all produce the bytes of serial local execution.
func TestSliceCacheStatesEquivalent(t *testing.T) {
	log := equivLog(50)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)

	// Baseline: cache on, ample budget; run twice (cold then warm).
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
	t.Cleanup(pool.Close)
	for pass := 0; pass < 2; pass++ {
		if got := explainWith(t, log, q, 7, pool); got != want {
			t.Fatalf("cache pass %d diverges:\n--- got ---\n%s--- want ---\n%s", pass, got, want)
		}
	}
	if s := pool.Stats(); s.SliceHits == 0 {
		t.Errorf("warm pass recorded no slice hits: %+v", s)
	}

	// Tiny budget: the worker caches at most a few hundred bytes, so
	// nearly every reference frame misses and forces a re-ship — the
	// eviction path — without changing a byte of output.
	old := shard.DefaultCacheBytes
	shard.DefaultCacheBytes = 512
	t.Cleanup(func() { shard.DefaultCacheBytes = old })
	tiny := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
	t.Cleanup(tiny.Close)
	for pass := 0; pass < 2; pass++ {
		if got := explainWith(t, log, q, 7, tiny); got != want {
			t.Fatalf("tiny-cache pass %d diverges:\n--- got ---\n%s--- want ---\n%s", pass, got, want)
		}
	}
	if s := tiny.Stats(); s.SliceMisses == 0 {
		t.Errorf("tiny cache recorded no misses: %+v", s)
	}
}

// TestSliceCacheEvictionAcrossSlices alternates two different workloads
// through one tiny-cached worker so entries evict each other, pinning
// that churn never leaks one slice's columns into another's results.
func TestSliceCacheEvictionAcrossSlices(t *testing.T) {
	old := shard.DefaultCacheBytes
	shard.DefaultCacheBytes = 4096
	t.Cleanup(func() { shard.DefaultCacheBytes = old })

	logA := equivLog(30)
	logB := equivLog(45)
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 1}
	t.Cleanup(pool.Close)
	wantA := pipelineResults(t, logA, specRunner{}, 5, 9)
	wantB := pipelineResults(t, logB, specRunner{}, 5, 9)
	for round := 0; round < 3; round++ {
		if got := pipelineResults(t, logA, pool, 5, 9); !bytes.Equal(got, wantA) {
			t.Fatalf("round %d: log A results changed under eviction churn", round)
		}
		if got := pipelineResults(t, logB, pool, 5, 9); !bytes.Equal(got, wantB) {
			t.Fatalf("round %d: log B results changed under eviction churn", round)
		}
	}
}

// TestSliceCacheEnvBudget pins that subprocess workers honour
// PXQL_SHARD_CACHE_BYTES: with a zero budget nothing caches, so every
// reference frame misses and the coordinator re-ships — still
// byte-identical.
func TestSliceCacheEnvBudget(t *testing.T) {
	log := equivLog(40)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pool := &shard.Pool{
		Command: []string{exe},
		Env:     []string{workerEnv + "=1", fmt.Sprintf("%s=0", shard.CacheBytesEnv)},
		Workers: 2,
	}
	t.Cleanup(pool.Close)
	for pass := 0; pass < 2; pass++ {
		if got := explainWith(t, log, q, 4, pool); got != want {
			t.Fatalf("zero-budget pass %d diverges:\n--- got ---\n%s--- want ---\n%s", pass, got, want)
		}
	}
	if s := pool.Stats(); s.SliceHits != 0 {
		t.Errorf("zero-budget workers still produced hits: %+v", s)
	}
}
