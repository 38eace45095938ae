package main

// workload is one traffic mix against one log. Every workload asks
// distinct questions (cache misses against a warm store) in a closed
// loop: a client sends its next question only after the previous answer
// arrived, the way an analyst waits for an explanation.
type workload struct {
	name string
	why  string
	// replicas is K: the preloaded log is the 540-job sweep amplified ×K.
	replicas int
	// args are the pxqld flags beyond -listen and -log.
	args []string
	// cycle is the templates the questions rotate through.
	cycle []string
	// duoShare is the part of the timed window in which two clients ask at
	// once, after a one-client phase; 0 keeps one client throughout.
	duoShare float64
	// grow alternates one 540-row /api/ingest, newPerRound new questions,
	// and the same questions again (cache hits) for the whole window.
	grow bool
	// coldRuns is how many one-shot pxql processes time the no-server path
	// beside each life: a whole number of rounds of the cycle.
	coldRuns int
}

const newPerRound = 3

// ingestPhase is how many 540-row batches each life appends after its
// share of the window. Ingest latency is a sawtooth: each batch
// re-stitches a tail 540 rows longer than the last, and every 2048 rows
// a segment seals, at several times the cost. Thirty-two batches cross
// the seal threshold eight times, and ingest_ms averages over all of
// them, so the cost of sealing is in the metric instead of in the one
// batch out of four a median never looks at.
const ingestPhase = 32

// rateBlockRounds is how many rounds of the template cycle make one
// throughput sample on a workload of distinct questions.
const rateBlockRounds = 5

// The sizes are what fits the benchmark's wall-clock cap on the 2-core
// reference box: 92 runs, each a timed window plus an equally long
// in-process replay that verifies every answer, in under an hour. The
// pair space is quadratic in K, so ×50 is still 7·10⁷ ordered pairs under
// the blocked template, 360 times MaxPairs.
var workloads = []workload{
	{
		name:     "paper_sweep",
		why:      "the paper's own 540-job log: enumeration costs nothing, so per-query fixed cost (parse, NewExplainer, sample, grow, render, JSON, HTTP) is everything; index, seek and tile work must show no change",
		replicas: 1,
		cycle:    []string{"blocked", "seek", "zone", "gendespite"},
		duoShare: 0.6,
		coldRuns: 16,
	},
	{
		name:     "big_blocked",
		why:      "27 000 jobs, blocked template: 10 groups walked in 4096-pair tiles and thinned to MaxPairs, so core enumeration, pxql.EvalBlock and features do nearly all the work and serving is noise",
		replicas: 50,
		cycle:    []string{"blocked"},
		coldRuns: 3,
	},
	{
		name:     "big_selective",
		why:      "the same 27 000 jobs, seek and zone templates: index range seeks and zone maps answer instead of the tile walk, so a tile-kernel gain predicts no change and a slower seek or prune shows here alone",
		replicas: 50,
		cycle:    []string{"seek", "zone"},
		coldRuns: 4,
	},
	{
		name:     "grow_sharded",
		why:      "5 400 jobs sealed, then 540-row appends between reads on -shards 4 -shard-workers 2: the only workload on the planner and shard transport; every append bumps the watermark and re-ships the tail",
		replicas: 10,
		args:     []string{"-shards", "4", "-shard-workers", "2"},
		cycle:    []string{"blocked"},
		grow:     true,
		coldRuns: 6,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
