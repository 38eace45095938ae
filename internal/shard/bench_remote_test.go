package shard_test

// Remote-transport summary for CI: the same workload — one full
// explanation plus a width-sweep's worth of evaluation rounds — shipped
// to loopback socket workers with the content-addressed slice cache on
// and off. The bytes-shipped ratio is the cache's whole point (score
// and eval rounds stop re-shipping identical slices) and is gated at
// 2x; frames/sec is informational. Emitted as BENCH_remote.json:
//
//	BENCH_REMOTE_JSON=$PWD/BENCH_remote.json go test -run TestBenchRemoteJSON ./internal/shard
//
// plus a plain benchmark runnable with:
//
//	go test -bench BenchmarkSocketEnum ./internal/shard

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"testing"
	"time"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

// startListener serves the shard protocol on a loopback listener.
func startListener(tb testing.TB, token string) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go shard.Serve(ln, token)
	tb.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// remoteWorkload drives one full explanation plus evalRounds sharded
// metric evaluations — the shape of a harness cell — through the pool,
// returning each evaluation round's wall-clock latency. With the slice
// cache (and prefetch) active, rounds after the first reference cached
// slices instead of re-shipping them, so the per-round tail should not
// exceed the first round.
func remoteWorkload(tb testing.TB, log *joblog.Log, q *pxql.Query, pool *shard.Pool, shards, evalRounds int) []time.Duration {
	tb.Helper()
	ex, err := core.NewExplainer(log, core.Config{
		Width:      3,
		Seed:       7,
		SampleSize: 400,
		Exec:       core.Exec{Parallelism: 4, Shards: shards, Runner: pool, Layout: core.FlatLayout(log)},
	})
	if err != nil {
		tb.Fatal(err)
	}
	x, err := ex.ExplainWithDespite(q)
	if err != nil {
		tb.Fatal(err)
	}
	rounds := make([]time.Duration, evalRounds)
	for round := 0; round < evalRounds; round++ {
		r0 := time.Now()
		if _, err := core.EvaluateExplanation(context.Background(), log, features.Level3, q, x, 0, 7,
			core.Exec{Shards: shards, Runner: pool, Layout: core.FlatLayout(log)}); err != nil {
			tb.Fatal(err)
		}
		rounds[round] = time.Since(r0)
	}
	return rounds
}

func TestBenchRemoteJSON(t *testing.T) {
	path := os.Getenv("BENCH_REMOTE_JSON")
	if path == "" {
		t.Skip("set BENCH_REMOTE_JSON=<path> to emit the remote transport summary")
	}
	const (
		token      = "bench-remote-token"
		shards     = 8
		evalRounds = 6 // one harness width sweep
		workers    = 2
	)
	log := equivLog(300)
	q := equivQuery(t, log)
	addr := startListener(t, token)

	runPool := func(disableCache bool) (shard.StatsSnapshot, time.Duration, []time.Duration) {
		pool := &shard.Pool{
			Dialer:            &shard.SocketDialer{Addrs: []string{addr}, Token: token},
			Workers:           workers,
			DisableSliceCache: disableCache,
		}
		defer pool.Close()
		t0 := time.Now()
		rounds := remoteWorkload(t, log, q, pool, shards, evalRounds)
		return pool.Stats(), time.Since(t0), rounds
	}

	on, onDur, onRounds := runPool(false)
	off, _, _ := runPool(true)

	if on.SliceHits == 0 {
		t.Fatalf("cache-on run recorded no slice hits: %+v", on)
	}
	ratio := float64(off.BytesSent) / float64(on.BytesSent)
	// The acceptance gate: with identical slices referenced instead of
	// re-shipped, the enumeration and evaluation rounds must cut shipped
	// bytes at least in half. The byte counts are deterministic gob sizes, so this is
	// not a timing-noise gate.
	if ratio < 2 {
		t.Errorf("slice cache saved only %.2fx bytes (on=%d off=%d), want >= 2x", ratio, on.BytesSent, off.BytesSent)
	}
	frames := on.FramesSent + on.FramesReceived
	// Per-round evaluation latency is informational: timing on shared CI
	// runners is too noisy to gate, but the series documents the shape
	// prefetch and caching produce — the first round ships payloads, the
	// tail references them.
	roundMs := make([]float64, len(onRounds))
	for i, d := range onRounds {
		roundMs[i] = float64(d.Microseconds()) / 1000
	}
	out := map[string]any{
		"records":              log.Len(),
		"shards":               shards,
		"workers":              workers,
		"eval_rounds":          evalRounds,
		"bytes_sent_cache_on":  on.BytesSent,
		"bytes_sent_cache_off": off.BytesSent,
		"bytes_ratio":          ratio,
		"slice_hits":           on.SliceHits,
		"slice_misses":         on.SliceMisses,
		"slice_bytes_saved":    on.SliceBytesSaved,
		"frames":               frames,
		"frames_per_sec":       float64(frames) / onDur.Seconds(),
		"prefetch_sent":        on.PrefetchSent,
		"prefetch_hits":        on.PrefetchHits,
		"eval_round_ms":        roundMs,
		"note":                 "bytes_ratio >= 2x is gated (deterministic gob sizes); frames_per_sec, prefetch counters and eval_round_ms are informational on shared runners",
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
	t.Logf("wrote %s: ratio=%.2fx frames=%d", path, ratio, frames)
}

// BenchmarkSocketEnum measures the enumeration stage over loopback
// socket workers — the socket counterpart of BenchmarkShardEnumSubprocess.
func BenchmarkSocketEnum(b *testing.B) {
	initBench(b)
	addr := startListener(b, "bench-socket-token")
	pool := &shard.Pool{
		Dialer:  &shard.SocketDialer{Addrs: []string{addr}, Token: "bench-socket-token"},
		Workers: 2,
	}
	defer pool.Close()
	benchEnumerate(b, pool, 12) // dial outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEnumerate(b, pool, 12)
	}
}
