package shard_test

// Shard-merge timing summary for CI (informational, no gate yet): how
// long planning + execution + merge of the pair-enumeration stage takes
// in each execution mode — the protocol round-trip cost on top of the
// coordinator's own local execution of the same specs. Emitted as BENCH_shard.json by the shard CI leg:
//
//	BENCH_SHARD_JSON=$PWD/BENCH_shard.json go test -run TestBenchShardJSON ./internal/shard
//
// plus plain benchmarks runnable with:
//
//	go test -bench BenchmarkShardEnum ./internal/shard

import (
	"encoding/json"
	"os"
	"sync"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

var (
	benchOnce  sync.Once
	benchLog   *joblog.Log
	benchQ     *pxql.Query
	benchPairs int
)

func initBench(tb testing.TB) {
	benchOnce.Do(func() {
		benchLog = equivLog(400)
		benchQ = equivQuery(tb, benchLog)
		specs := core.PlanEnumShards(core.FlatLayout(benchLog), benchLog, features.Level3, benchQ, benchQ.Despite, false, 0, 1, 12345)
		res, err := specs[0].Run()
		if err != nil {
			tb.Fatal(err)
		}
		benchPairs = len(res.RefA)
	})
}

// benchEnumerate plans and runs the enumeration stage under a runner,
// checking the related-pair count so every mode does the same work.
func benchEnumerate(tb testing.TB, runner core.ShardRunner, shards int) {
	specs := core.PlanEnumShards(core.FlatLayout(benchLog), benchLog, features.Level3, benchQ, benchQ.Despite, false, 0, shards, 12345)
	results, err := runner.RunEnum(specs)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for i := range results {
		n += len(results[i].RefA)
	}
	if n != benchPairs {
		tb.Fatalf("enumerated %d pairs, want %d", n, benchPairs)
	}
}

// BenchmarkShardEnumLocal is the denominator: the same enumeration
// planned and run on this process's cores over the resident columns.
func BenchmarkShardEnumLocal(b *testing.B) {
	initBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(core.RelatedPairsP(benchLog, features.Level3, benchQ, 0, 12345, 0)); n != benchPairs {
			b.Fatalf("enumerated %d pairs, want %d", n, benchPairs)
		}
	}
}

func BenchmarkShardEnumSubprocess(b *testing.B) {
	initBench(b)
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	pool := &shard.Pool{Command: []string{exe}, Env: []string{workerEnv + "=1"}, Workers: 3}
	defer pool.Close()
	benchEnumerate(b, pool, 12) // spawn workers outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEnumerate(b, pool, 12)
	}
}

func TestBenchShardJSON(t *testing.T) {
	path := os.Getenv("BENCH_SHARD_JSON")
	if path == "" {
		t.Skip("set BENCH_SHARD_JSON=<path> to emit the shard timing summary")
	}
	initBench(t)
	type entry struct {
		NsPerOp float64 `json:"ns_per_op"`
		Pairs   int     `json:"pairs"`
	}
	results := make(map[string]entry)
	measure := func(name string, fn func(b *testing.B)) {
		// Best of three: shared CI runners are noisy and this artifact is
		// informational — minimum ns/op tracks engine cost, not neighbours.
		var best float64
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(fn)
			ns := float64(r.NsPerOp())
			if run == 0 || ns < best {
				best = ns
			}
		}
		results[name] = entry{NsPerOp: best, Pairs: benchPairs}
	}
	measure("enumerate/local", BenchmarkShardEnumLocal)
	measure("enumerate/subprocess", BenchmarkShardEnumSubprocess)
	out := map[string]any{
		"records":    benchLog.Len(),
		"benchmarks": results,
		"note":       "informational, no gate: subprocess mode pays spec serialization + pipe transport; it exists for logs that exceed one box, not for single-box speed",
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
	t.Logf("wrote %s: %+v", path, results)
}
