// Package result defines the benchmark's metric table and the one
// envelope every artifact it writes is wrapped in, so a result file, a
// history line and a trace header all say which commit, machine and seed
// produced them.
package result

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Schema names the envelope layout; bump it when fields change meaning.
const Schema = "pxbench/v1"

// Def describes one metric: what it is called, its unit, which direction
// is better, and for end-to-end metrics the share of the parent's median
// by which it may worsen before the change counts as a regression.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Why    string
}

// EndToEnd are the metrics a user of the system sees, measured at the
// HTTP client (or the CLI's exit) with tracing off. BENCHMARK.json lists
// the same names, units and bounds; a test keeps the two in step.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25, "CSV write + pxqld start + -log load and seal + first correct answer (lazy column and index builds); median over the run's fresh servers"},
	{"explain_p25_ms", "ms", "lower", 0.25, "one client's wait for a cache-miss /api/explain: lower quartile over rounds of the workload's template cycle of the round's mean latency"},
	{"queries_per_s", "1/s", "higher", 0.25, "distinct explanations completed per second: upper quartile over blocks of five rounds (two clients on paper_sweep, one elsewhere)"},
	{"ingest_ms", "ms", "lower", 0.25, "POST /api/ingest of 540 rows: per batch the fastest of the run's servers, averaged over a 32-batch phase that seals eight segments"},
	{"cold_answer_s", "s", "lower", 0.25, "exec-to-exit wall of one-shot pxql -log, the paper's no-server path: lower quartile over rounds of the template cycle"},
	{"peak_rss_mb", "MB", "lower", 0.15, "VmHWM of pxqld plus its shard workers at the end of the timed window; median over the run's servers"},
}

// PerLayer are the traced run's metrics, named package.metric after the
// repo's packages. They carry no bound: they explain a move in an
// end-to-end number, they do not gate.
var PerLayer = []Def{
	{"joblog.read_csv_ms", "ms", "lower", 0, "joblog.ReadCSV on the preload CSV"},
	{"joblog.read_csv_mb_per_s", "MB/s", "higher", 0, "preload CSV bytes over read_csv time"},
	{"joblog.ingest_seal_ms", "ms", "lower", 0, "Store.Append of every preload row plus Seal"},
	{"joblog.snapshot_ms", "ms", "lower", 0, "first Store.Snapshot after load (after each append on grow_sharded)"},
	{"joblog.index_build_ms", "ms", "lower", 0, "first Log.Columns plus SortedIndex over every field of a fresh snapshot"},
	{"joblog.append_ms", "ms", "lower", 0, "Store.Append of one 540-row batch"},
	{"joblog.sealed_segments", "count", "lower", 0, "sealed segments at the end of the replay"},
	{"pxql.parse_us", "us", "lower", 0, "pxql.Parse per question"},
	{"pxql.canonical_us", "us", "lower", 0, "Query.String per question (the cache key)"},
	{"pxql.evalblock_ns_per_pair", "ns", "lower", 0, "compiled despite predicate, EvalBlock over 4096-pair tiles of kept pairs"},
	{"features.materialize_ns_per_pair", "ns", "lower", 0, "PairMatrix.Fill over the first 2000 kept pairs"},
	{"core.new_explainer_ms", "ms", "lower", 0, "NewExplainer per question"},
	{"core.enumerate_ms", "ms", "lower", 0, "core.RelatedPairsP with the server's MaxPairs"},
	{"core.pairs_kept", "count", "higher", 0, "pairs RelatedPairsP kept for the first question"},
	{"core.enumerate_keep_ratio", "ratio", "higher", 0, "pairs kept over the generator-known ordered pair space of the despite clause"},
	{"core.explain_ms", "ms", "lower", 0, "Explainer.Explain wall per question"},
	{"core.grow_ms", "ms", "lower", 0, "derived: explain_ms - enumerate_ms (sample, materialize, grow, diagnostics)"},
	{"core.despite_gen_ms", "ms", "lower", 0, "Explainer.GenerateDespite on gendespite questions (0 where none are asked)"},
	{"core.explain_alloc_mb", "MB", "lower", 0, "heap bytes allocated by one Explain"},
	{"core.explain_allocs", "count", "lower", 0, "heap objects allocated by one Explain"},
	{"core.evaluate_ms", "ms", "lower", 0, "core.EvaluateExplanationP of a produced explanation on the full log"},
	{"perfxplain.find_pair_ms", "ms", "lower", 0, "FindPairOfInterestP on the base log"},
	{"perfxplain.render_us", "us", "lower", 0, "RenderReport per question"},
	{"serve.http_overhead_ms", "ms", "lower", 0, "derived: p50 HTTP miss - p50 in-process parse+new_explainer+explain+render"},
	{"serve.explain_miss_p50_ms", "ms", "lower", 0, "median over single one-client cache-miss round trips: what a user sees on this box, neighbours included"},
	{"serve.inproc_p50_ms", "ms", "lower", 0, "p50 in-process parse+new_explainer+explain+render of the replay"},
	{"serve.hit_p50_us", "us", "lower", 0, "repeat-question round trip (0 where no question repeats)"},
	{"serve.explain_tail_ms", "ms", "lower", 0, "miss latency at the highest percentile with 10 samples beyond it"},
	{"serve.explain_tail_pct", "%", "higher", 0, "which percentile explain_tail_ms is"},
	{"serve.explain_samples", "count", "higher", 0, "cache-miss requests behind explain_p25_ms"},
	{"serve.cache_hits", "count", "higher", 0, "/api/stats delta over the timed window"},
	{"serve.cache_misses", "count", "lower", 0, "/api/stats delta over the timed window"},
	{"serve.collapsed", "count", "higher", 0, "/api/stats delta over the timed window"},
	{"serve.computations", "count", "lower", 0, "/api/stats delta over the timed window"},
	{"serve.rejected_429", "count", "lower", 0, "client-side count of 429 responses"},
	{"serve.timeout_504", "count", "lower", 0, "client-side count of 504 responses"},
	{"shard.overhead_ms", "ms", "lower", 0, "derived: Explain on 4 shards over 2 subprocess workers - direct Explain (grow_sharded; 0 elsewhere)"},
	{"shard.bytes_sent_per_query", "B", "lower", 0, "WorkerPool.Stats delta per sharded Explain"},
	{"shard.frames_per_query", "count", "lower", 0, "WorkerPool.Stats delta per sharded Explain"},
	{"shard.slice_hits", "count", "higher", 0, "WorkerPool.Stats over the sharded replay"},
	{"shard.slice_misses", "count", "lower", 0, "WorkerPool.Stats over the sharded replay"},
	{"shard.prefetch_sent", "count", "lower", 0, "WorkerPool.Stats over the sharded replay"},
	{"shard.prefetch_hits", "count", "higher", 0, "WorkerPool.Stats over the sharded replay"},
}

// Value is one measured metric.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Bound is set on end-to-end metrics only.
	Bound  float64 `json:"bound,omitempty"`
	Better string  `json:"better,omitempty"`
}

// Workload is one workload's outcome.
type Workload struct {
	Name          string           `json:"name"`
	Correct       bool             `json:"correct"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	FailedShare   float64          `json:"failed_share"`
	Answers       int              `json:"answers"`
	AnswersSHA256 string           `json:"answers_sha256"`
	EndToEnd      map[string]Value `json:"end_to_end"`
	PerLayer      map[string]Value `json:"per_layer,omitempty"`
}

// Envelope wraps every artifact the benchmark writes.
type Envelope struct {
	Schema     string     `json:"schema"`
	Commit     string     `json:"commit"`
	Dirty      bool       `json:"dirty"`
	GoVersion  string     `json:"go_version"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	CPU        string     `json:"cpu"`
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Questions  int        `json:"questions,omitempty"`
	Started    string     `json:"started"`
	Workloads  []Workload `json:"workloads,omitempty"`
}

// NewEnvelope records the commit and machine this process runs on.
func NewEnvelope(seed int64, seconds float64, questions int, started string) Envelope {
	e := Envelope{
		Schema:     Schema,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Questions:  questions,
		Started:    started,
	}
	// Outside a git work tree (an exported checkout) the commit stays
	// "unknown"; that is a fact about the run, not an error.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return e
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// WriteFile writes the envelope as indented JSON.
func (e Envelope) WriteFile(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// AppendHistory appends the envelope as one line to the journal at path.
func (e Envelope) AppendHistory(path string) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads every envelope in a file: a result file holds one, a history
// journal holds one a line. Either way each is one run.
func Load(path string) ([]Envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Envelope
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var e Envelope
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if e.Schema != Schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, e.Schema, Schema)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}
