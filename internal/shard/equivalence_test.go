package shard_test

// The distributed-vs-local equivalence suite: every worker transport of
// the pair pipeline — subprocess workers over the gob pipe protocol,
// socket and channel transports — planned over the flat log's own
// segment layout, must produce explanations, atom details and metrics
// byte-identical to serial local execution (one spec, one goroutine, no
// runner — itself pinned to the paper's definitions by internal/core's
// oracle suite) at every shard count and in every sampling mode, and so
// must local execution at every spec count and parallelism. The
// cases deliberately include a blocking group large enough to straddle
// shard boundaries at small shard counts and a log small enough that
// high shard counts plan empty shards.
//
// Subprocess workers are this test binary re-executed with
// PXQL_SHARD_WORKER=1 (see TestMain in worker_main_test.go).

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

// equivLog builds a deterministic synthetic execution log with the shape
// the shard planner cares about: several blocking groups under the
// (pigscript, numinstances) despite clause, one of them much larger
// than the others (it straddles shard boundaries), plus missing values
// and an unblockable record (missing pigscript).
func equivLog(n int) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "pigscript", Kind: joblog.Nominal},
		{Name: "numinstances", Kind: joblog.Numeric},
		{Name: "inputsize", Kind: joblog.Numeric},
		{Name: "hostname", Kind: joblog.Nominal},
		{Name: "cpu", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	rng := rand.New(rand.NewSource(99))
	scripts := []string{"wordcount", "join", "scan"}
	for i := 0; i < n; i++ {
		// Two thirds of the records share one blocking group so it
		// dominates the outer-unit sequence.
		script := scripts[0]
		inst := 10.0
		if i%3 == 1 {
			script = scripts[1+i%2]
			inst = 5
		}
		host := fmt.Sprintf("host-%d", i%4)
		values := []joblog.Value{
			joblog.Str(script),
			joblog.Num(inst),
			joblog.Num(float64(64 + 32*(i%5))),
			joblog.Str(host),
			joblog.Num(10 + 90*rng.Float64()),
			joblog.Num(20 + 400*rng.Float64()),
		}
		if i%11 == 7 {
			values[4] = joblog.None() // missing cpu
		}
		if i == n-1 {
			values[0] = joblog.None() // unblockable record
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("job-%03d", i), Values: values})
	}
	return log
}

// equivQuery asks why one big-group record was much slower than another.
func equivQuery(t testing.TB, log *joblog.Log) *pxql.Query {
	t.Helper()
	q, err := pxql.Parse(`
DESPITE pigscript_issame = T AND numinstances_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the pair with the largest duration gap inside the despite
	// context, like the CLI's -find.
	pairs := core.RelatedPairsP(log, features.Level3, q, 0, 1, 0)
	bestGap := -1.0
	for _, p := range pairs {
		if !p.Observed {
			continue
		}
		d1 := log.Value(p.A, "duration").Num
		d2 := log.Value(p.B, "duration").Num
		if d2 == 0 {
			continue
		}
		if gap := d1 / d2; gap > bestGap {
			bestGap = gap
			q.ID1, q.ID2 = p.A.ID, p.B.ID
		}
	}
	if bestGap < 0 {
		t.Fatal("no pair of interest in synthetic log")
	}
	return q
}

// explainOver runs one full explanation (with generated despite — the
// mode exercising every pipeline stage twice) plus its held-out metrics
// and dumps every user-visible facet with full float precision. Both
// walks — enumeration and evaluation — execute per exec, so comparing a
// worker-backed dump against the serial local one pins explanation and
// evaluation paths alike. cfg carries the sampling mode under test; its
// MaxPairs (0 = uncapped) caps the evaluation walk as well as training
// enumeration, so a capped mode thins both spec kinds.
func explainOver(t *testing.T, log *joblog.Log, q *pxql.Query, exec core.Exec, cfg core.Config) string {
	t.Helper()
	cfg.Width, cfg.Seed, cfg.SampleSize, cfg.Exec = 3, 7, 400, exec
	ex, err := core.NewExplainer(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainWithDespite(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", x)
	fmt.Fprintf(&b, "train: precision=%v generality=%v relevance=%v sample=%d related=%d\n",
		x.TrainPrecision, x.TrainGenerality, x.TrainRelevance, x.SampleSize, x.RelatedPairs)
	for i, a := range x.Atoms {
		fmt.Fprintf(&b, "atom[%d]: %s precision=%v generality=%v\n", i, a.Atom, a.Precision, a.Generality)
	}
	m, err := core.EvaluateExplanation(context.Background(), log, features.Level3, q, x, cfg.MaxPairs, 7, exec)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	fmt.Fprintf(&b, "metrics: relevance=%v precision=%v generality=%v context=%d because=%d\n",
		m.Relevance, m.Precision, m.Generality, m.ContextPairs, m.BecausePairs)
	return b.String()
}

// explainWith is explainOver in the default Bernoulli mode over a flat
// log, on runner's workers.
func explainWith(t *testing.T, log *joblog.Log, q *pxql.Query, shards int, runner core.ShardRunner) string {
	t.Helper()
	return explainOver(t, log, q, pooled(log, shards, runner), core.Config{})
}

// explainSerial is the suite's reference: the same pipeline on this
// process, one spec per walk, one goroutine.
func explainSerial(t *testing.T, log *joblog.Log, q *pxql.Query) string {
	t.Helper()
	return explainOver(t, log, q, serialExec, core.Config{})
}

var serialExec = core.Exec{Parallelism: 1, Shards: 1}

// equivCase is one (log, query, sampling config) the suite drives through
// its executors, with the serial local dump each must reproduce.
type equivCase struct {
	log  *joblog.Log
	q    *pxql.Query
	cfg  core.Config
	want string
}

// skipCapped is the default configuration capped far enough below
// equivLog(150)'s 11 100 candidate pairs that both walks take the
// geometric-skip path of core.walkTiles (keep probability under 1/8)
// while still keeping a few hundred pairs.
var skipCapped = core.Config{MaxPairs: 1000}

// skipCappedCase is the capped leg of the equivalence suites: a pair's
// fate there hangs on its position in the planned group, so it is the
// case that would notice a spec, transport or seal boundary renumbering
// one. It fails the test if the cap misses the skip path on either walk
// or the serial run keeps nothing to compare.
func skipCappedCase(t *testing.T) equivCase {
	t.Helper()
	log := equivLog(150)
	q := equivQuery(t, log)
	enum := core.PlanEnumShards(nil, log, features.Level3, q, q.Despite, skipCapped.MaxPairs, 1, 1)[0]
	eval := core.PlanEvalShards(nil, log, features.Level3, q, &core.Explanation{}, skipCapped.MaxPairs, 1, 1)[0]
	for _, keepP := range []float64{enum.KeepP, eval.KeepP} {
		if keepP <= 0 || keepP >= 1.0/8 {
			t.Fatalf("MaxPairs %d gives keep probability %v; the capped leg misses the skip path", skipCapped.MaxPairs, keepP)
		}
	}
	want := explainOver(t, log, q, serialExec, skipCapped)
	if strings.Contains(want, "related=0\n") || strings.Contains(want, "context=0 ") {
		t.Fatalf("the capped serial run kept no pairs; the capped leg compares empty sets:\n%s", want)
	}
	return equivCase{log, q, skipCapped, want}
}

// bernoulliCases are the two thinning cases: uncapped over the small log,
// and skipCappedCase.
func bernoulliCases(t *testing.T) []equivCase {
	t.Helper()
	log := equivLog(60)
	q := equivQuery(t, log)
	return []equivCase{{log, q, core.Config{}, explainSerial(t, log, q)}, skipCappedCase(t)}
}

// pooled is the executor of a flat log's walks on runner's workers.
func pooled(log *joblog.Log, shards int, runner core.ShardRunner) core.Exec {
	return core.Exec{Parallelism: 4, Shards: shards, Runner: runner, Layout: core.FlatLayout(log)}
}

// specRunner executes each spec standalone in this process — it decodes
// the spec's own slices, with no pool, frame or cache in between — the
// reference for tests that compare raw spec results.
type specRunner struct{}

func (specRunner) RunEnum(specs []core.EnumSpec) ([]core.EnumResult, error) {
	out := make([]core.EnumResult, len(specs))
	for i := range specs {
		r, err := specs[i].Run()
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

func (specRunner) RunEval(specs []core.EvalSpec) ([]core.EvalResult, error) {
	out := make([]core.EvalResult, len(specs))
	for i := range specs {
		r, err := specs[i].Run()
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

// workerPool returns a subprocess pool backed by this test binary.
func workerPool(t *testing.T, workers int) *shard.Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &shard.Pool{
		Command: []string{exe},
		Env:     []string{workerEnv + "=1"},
		Workers: workers,
	}
	t.Cleanup(p.Close)
	return p
}

func shardCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestEquivalenceInProcess pins local execution against itself: every
// spec count (0 = the default eight per worker) at every parallelism
// reproduces the serial dump.
func TestEquivalenceInProcess(t *testing.T) {
	for _, c := range bernoulliCases(t) {
		for _, n := range append(shardCounts(), 64, 0) {
			for _, p := range []int{1, 2, 7} {
				got := explainOver(t, c.log, c.q, core.Exec{Parallelism: p, Shards: n}, c.cfg)
				if got != c.want {
					t.Errorf("local maxPairs=%d shards=%d parallelism=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s",
						c.cfg.MaxPairs, n, p, got, c.want)
				}
			}
		}
	}
}

// TestEquivalenceSamplingModes runs the sampler's position-keyed regime
// — the cap pushed onto the geometric-skip path, where a pair's fate
// hangs on its place in the planned group — through every executor:
// each must reproduce the serial local run at shards 1, 2 and 7. (The
// hashed regime and the uncapped walk are the other suites' case.)
func TestEquivalenceSamplingModes(t *testing.T) {
	runners := []struct {
		name   string
		runner core.ShardRunner
	}{
		{"local", nil},
		{"chan", chanPool(t, 3)},
		{"subprocess", workerPool(t, 3)},
		{"socket", socketPool(t, 2)},
	}
	c := skipCappedCase(t)
	for _, r := range runners {
		for _, n := range []int{1, 2, 7} {
			exec := core.Exec{Parallelism: 4, Shards: n}
			if r.runner != nil {
				exec = pooled(c.log, n, r.runner)
			}
			if got := explainOver(t, c.log, c.q, exec, c.cfg); got != c.want {
				t.Errorf("%s maxPairs=%d shards=%d diverges from the serial run:\n--- got ---\n%s--- want ---\n%s",
					r.name, c.cfg.MaxPairs, n, got, c.want)
			}
		}
	}
}

func TestEquivalenceSubprocess(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)
	pool := workerPool(t, 3)
	for _, n := range shardCounts() {
		got := explainWith(t, log, q, n, pool)
		if got != want {
			t.Errorf("subprocess shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s", n, got, want)
		}
	}
}

// TestEquivalenceEmptyShards pins the empty-shard case: a log whose
// despite context has fewer outer units than the shard count, so
// trailing specs carry no groups — locally and on workers.
func TestEquivalenceEmptyShards(t *testing.T) {
	log := equivLog(14) // big group ~9 records, others tiny
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(core.FlatLayout(log), log, features.Level3, q, q.Despite, 0, 64, 123)
	empty := 0
	for _, s := range specs {
		if len(s.Groups) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("expected empty shards in a 64-way plan of a %d-record log", log.Len())
	}
	want := explainSerial(t, log, q)
	if got := explainOver(t, log, q, core.Exec{Shards: 64}, core.Config{}); got != want {
		t.Errorf("local 64-way sharding diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got := explainWith(t, log, q, 64, workerPool(t, 3)); got != want {
		t.Errorf("subprocess 64-way sharding diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEquivalenceStraddlingGroup pins that a blocking group split across
// shard specs (different outer ranges of the same group in different
// specs) reproduces the serial pair walk.
func TestEquivalenceStraddlingGroup(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(core.FlatLayout(log), log, features.Level3, q, q.Despite, 0, 7, 123)
	seen := map[int]int{} // group fingerprint (first member) -> spec count
	for _, s := range specs {
		for _, g := range s.Groups {
			seen[g.Members[0]]++
		}
	}
	straddles := false
	for _, n := range seen {
		if n > 1 {
			straddles = true
		}
	}
	if !straddles {
		t.Fatal("expected at least one blocking group to straddle shard boundaries at 7 shards")
	}
	want := explainSerial(t, log, q)
	if got := explainOver(t, log, q, core.Exec{Shards: 7}, core.Config{}); got != want {
		t.Errorf("local straddling-group plan diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got := explainWith(t, log, q, 7, chanPool(t, 2)); got != want {
		t.Errorf("straddling-group plan diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// socketPool starts an in-process loopback listener serving the shard
// protocol with token auth and returns a pool of socket transports
// dialing it — the remote-worker topology, minus the second machine.
func socketPool(t *testing.T, workers int) *shard.Pool {
	t.Helper()
	const token = "equivalence-test-token"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go shard.Serve(ln, token)
	t.Cleanup(func() { ln.Close() })
	p := &shard.Pool{
		Dialer:  &shard.SocketDialer{Addrs: []string{ln.Addr().String()}, Token: token},
		Workers: workers,
	}
	t.Cleanup(p.Close)
	return p
}

// chanPool returns a pool of in-process channel workers — the full frame
// protocol, slice cache included, without serialization.
func chanPool(t *testing.T, workers int) *shard.Pool {
	t.Helper()
	p := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: workers}
	t.Cleanup(p.Close)
	return p
}

// TestEquivalenceSocket pins the loopback-TCP transport: byte-identical
// output at every shard count, with the slice cache cold (first pass)
// and warm (second pass over the same pool — by then every segment
// slice is cached worker-side and ships as a hash).
func TestEquivalenceSocket(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)
	pool := socketPool(t, 2)
	for pass, label := range []string{"cold", "warm"} {
		for _, n := range shardCounts() {
			got := explainWith(t, log, q, n, pool)
			if got != want {
				t.Errorf("socket shards=%d (%s cache) diverges from serial:\n--- got ---\n%s--- want ---\n%s",
					n, label, got, want)
			}
		}
		if pass == 1 {
			if s := pool.Stats(); s.SliceHits == 0 {
				t.Errorf("warm pass recorded no slice-cache hits: %+v", s)
			}
		}
	}
}

// TestEquivalenceChanTransport pins the in-process channel transport.
func TestEquivalenceChanTransport(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)
	pool := chanPool(t, 3)
	for _, n := range shardCounts() {
		got := explainWith(t, log, q, n, pool)
		if got != want {
			t.Errorf("chan-transport shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s", n, got, want)
		}
	}
}

// TestSocketWorkerDiesMidFrame pins the truncated-frame case on the
// socket transport: a worker that completes the handshake, accepts a
// task and then dies halfway through writing its result must surface as
// a typed *shard.TransportError — never a hang, never a panic, never a
// silent partial result.
func TestSocketWorkerDiesMidFrame(t *testing.T) {
	const token = "mid-frame-token"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// A half gob-encoded result frame: enough bytes to look like the
	// start of a stream, cut before the frame completes.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&shard.Result{Version: shard.Version, Seq: 0}); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Server half of the handshake (the wire format transport.go
		// documents): 32-byte challenge out, 32-byte HMAC back, OK byte.
		nonce := make([]byte, 32)
		if _, err := conn.Write(nonce); err != nil {
			return
		}
		mac := make([]byte, 32)
		if _, err := io.ReadFull(conn, mac); err != nil {
			return
		}
		if _, err := conn.Write([]byte{0x4f}); err != nil {
			return
		}
		// Read some of the task, answer with a truncated frame, die.
		io.ReadFull(conn, make([]byte, 16))
		conn.Write(half)
	}()

	// The fake server skips HMAC verification, so any token dials.
	pool := &shard.Pool{
		Dialer:  &shard.SocketDialer{Addrs: []string{ln.Addr().String()}, Token: token},
		Workers: 1,
	}
	defer pool.Close()

	log := equivLog(20)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(core.FlatLayout(log), log, features.Level3, q, q.Despite, 0, 2, 1)
	done := make(chan error, 1)
	go func() {
		_, err := pool.RunEnum(specs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from a worker dying mid-frame")
		}
		var te *shard.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("mid-frame death surfaced as %T (%v), want *shard.TransportError", err, err)
		}
		if te.Op != "recv" {
			t.Errorf("transport error op = %q, want \"recv\"", te.Op)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("truncated frame hung the coordinator")
	}
}

// TestSocketBadToken pins authentication: a coordinator with the wrong
// token is rejected during the handshake with a typed transport error.
func TestSocketBadToken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go shard.Serve(ln, "right-token")
	defer ln.Close()

	pool := &shard.Pool{
		Dialer:  &shard.SocketDialer{Addrs: []string{ln.Addr().String()}, Token: "wrong-token"},
		Workers: 1,
	}
	defer pool.Close()
	log := equivLog(20)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(core.FlatLayout(log), log, features.Level3, q, q.Despite, 0, 2, 1)
	_, err = pool.RunEnum(specs)
	if err == nil {
		t.Fatal("expected a handshake rejection with the wrong token")
	}
	var te *shard.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("bad token surfaced as %T (%v), want *shard.TransportError", err, err)
	}
	if te.Op != "handshake" {
		t.Errorf("transport error op = %q, want \"handshake\"", te.Op)
	}
}

// TestSubprocessWorkerCrash pins crash handling: workers that die
// mid-protocol fail the batch with an error (no hang, no panic), the
// dead workers are discarded, and the next batch re-leases fresh ones.
func TestSubprocessWorkerCrash(t *testing.T) {
	log := equivLog(30)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(core.FlatLayout(log), log, features.Level3, q, q.Despite, 0, 4, 1)
	pool := &shard.Pool{Command: []string{"sh", "-c", "exit 1"}, Workers: 2}
	t.Cleanup(pool.Close)
	for round := 0; round < 2; round++ {
		if _, err := pool.RunEnum(specs); err == nil {
			t.Fatalf("round %d: expected an error from crashing workers", round)
		}
	}
}

// TestSubprocessWorkerFailure pins error propagation: a pool whose
// worker command is broken must fail the explanation with an error, not
// hang or corrupt output.
func TestSubprocessWorkerFailure(t *testing.T) {
	log := equivLog(30)
	q := equivQuery(t, log)
	pool := &shard.Pool{Command: []string{"/nonexistent/pxql-worker"}, Workers: 2}
	t.Cleanup(pool.Close)
	ex, err := core.NewExplainer(log, core.Config{Seed: 7, Exec: core.Exec{Shards: 4, Runner: pool, Layout: core.FlatLayout(log)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Explain(context.Background(), q); err == nil {
		t.Fatal("expected an error from a dead worker pool")
	}
}
