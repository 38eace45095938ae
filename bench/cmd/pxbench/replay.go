package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"perfxplain"
	"perfxplain/bench/gen"
	"perfxplain/internal/bitset"
	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// probeQuestions is how many timed questions the traced run also takes
// apart layer by layer (enumeration alone, allocation counts).
const probeQuestions = 5

// tile is the engine's pair-block size, the unit EvalBlock is timed over.
const tile = 4096

// replayed is the in-process pass over the questions the server was
// asked: the expected answer for each, spans around every call, and (in a
// traced run) the per-layer probes.
type replayed struct {
	tr *tracer
	// inprocMS is parse+new_explainer+explain+render per distinct timed
	// question: what the server does for a miss, minus HTTP and JSON.
	inprocMS []float64
	// shardWrong counts sharded replays whose report differed from the
	// direct one.
	shardWrong int
	shardN     int
	shardStats perfxplain.ShardStats
	// directForShardMS are the direct Explain times of exactly the
	// questions the sharded probe ran, so their difference is overhead.
	directForShardMS []float64
	allocMB, allocs  []float64
	sealed           int
}

// serverOptions are pxqld's defaults as cmd/pxqld resolves them, with the
// question's own seed; shard flags cannot change an answer's bytes.
func serverOptions(q gen.Question) perfxplain.Options {
	return perfxplain.Options{Width: 3, DespiteWidth: 3, FeatureLevel: 3, Seed: q.Seed}
}

// runReplay recomputes every answer in this process through the public
// API, the way a one-shot pxql would, and stores it as the asked
// question's expected report. With opt.trace it also probes each layer.
func runReplay(ctx context.Context, r *timedRun, opt options, bins binaries) (*replayed, error) {
	rp := &replayed{tr: newTracer()}

	f, err := os.Open(r.preloadCSV)
	if err != nil {
		return nil, err
	}
	pre, err := perfxplain.ReadLogCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	// A life's store starts as pxqld -log builds it: ingest, then seal.
	newStore := func() (*perfxplain.Store, error) {
		st := perfxplain.NewStore(pre, 0)
		if err := st.Ingest(pre); err != nil {
			return nil, err
		}
		st.Seal()
		return st, nil
	}
	store, err := newStore()
	if err != nil {
		return nil, err
	}

	// The sharded probe mirrors pxqld -shards 4 -shard-workers 2: one pool
	// per life, as each server owns one.
	var pool *perfxplain.WorkerPool
	closePool := func() {
		if pool != nil {
			st := pool.Stats()
			rp.shardStats.BytesSent += st.BytesSent
			rp.shardStats.FramesSent += st.FramesSent
			rp.shardStats.SliceHits += st.SliceHits
			rp.shardStats.SliceMisses += st.SliceMisses
			rp.shardStats.PrefetchSent += st.PrefetchSent
			rp.shardStats.PrefetchHits += st.PrefetchHits
			pool.Close()
			pool = nil
		}
	}
	defer closePool()

	type key struct{ index, appended int }
	expected := map[key]string{}
	// The cold runs read the preload alone, whatever their life appended.
	for i := range r.cold {
		a := &r.cold[i]
		k := key{a.index, 0}
		if _, ok := expected[k]; !ok {
			res, err := rp.answer(ctx, store.Snapshot(), a.q, a.index, false)
			if err != nil {
				return nil, fmt.Errorf("replay cold question %d: %w", a.index, err)
			}
			expected[k] = res.report
		}
		a.want = expected[k]
	}
	var deep []int // positions in r.asked of the questions probed layer by layer
	life, appended, shardedRound := -1, 0, 0
	for i := range r.asked {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		a := &r.asked[i]
		k := key{a.index, a.appended}
		if want, ok := expected[k]; ok {
			a.want = want
			continue
		}
		if a.life != life && r.w.grow {
			// Every life ingests the same batches into a fresh server.
			if life >= 0 {
				if store, err = newStore(); err != nil {
					return nil, err
				}
			}
			appended, shardedRound = 0, 0
			if opt.trace {
				closePool()
				pool, err = perfxplain.NewWorkerPool(perfxplain.PoolOptions{
					Workers: 2, Command: []string{bins.pxqld, "-shard-worker"}})
				if err != nil {
					return nil, err
				}
			}
		}
		life = a.life
		for ; appended < a.appended; appended++ {
			b, err := perfxplain.ReadLogCSV(bytes.NewReader(r.batches[appended]))
			if err != nil {
				return nil, err
			}
			if err := store.Ingest(b); err != nil {
				return nil, err
			}
		}
		log := store.Snapshot()
		probed := opt.trace && a.timed && len(deep) < probeQuestions
		res, err := rp.answer(ctx, log, a.q, a.index, probed)
		if err != nil {
			return nil, fmt.Errorf("replay question %d: %w", a.index, err)
		}
		a.want, expected[k] = res.report, res.report
		if a.timed {
			rp.inprocMS = append(rp.inprocMS, res.totalMS)
		}
		if probed {
			if len(deep) == 0 {
				rp.tr.time("core.evaluate", 0, a.index, func() {
					_, err = perfxplain.Evaluate(log, res.q, res.x, serverOptions(a.q))
				})
				if err != nil {
					return nil, err
				}
			}
			deep = append(deep, i)
		}
		// One sharded Explain per round: the first new question after each
		// append is the one that re-ships the grown tail.
		if pool != nil && a.timed && a.appended > shardedRound {
			shardedRound = a.appended
			if err := rp.sharded(ctx, pool, log, a, res); err != nil {
				return nil, err
			}
		}
	}
	closePool()
	if !opt.trace {
		return rp, nil
	}

	// The layer probes run on their own copy of the log, loaded only now
	// that the answers are timed and their log is dropped: a second
	// resident log would make every collection mark twice the heap.
	store, pre = nil, nil
	probe, err := newLayerProbe(rp.tr, r)
	if err != nil {
		return nil, err
	}
	appended = 0
	ingest := func(upto int) error {
		for ; appended < upto; appended++ {
			if err := probe.append(r.batches[appended]); err != nil {
				return err
			}
		}
		return nil
	}
	for n, i := range deep {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		a := &r.asked[i]
		if err := ingest(a.appended); err != nil {
			return nil, err
		}
		// The kernels first: their untimed enumeration pays the lazy builds
		// the answers' log had paid before the first timed question.
		if n == 0 {
			if err := probe.kernels(a.q); err != nil {
				return nil, err
			}
		}
		if err := probe.enumerate(a.q, a.index, r.w.replicas+appended); err != nil {
			return nil, err
		}
	}
	// Every batch the server ingested, the ingest phase included, so
	// append and seal costs are probed at this log size.
	if err := ingest(len(r.batches)); err != nil {
		return nil, err
	}
	rp.sealed = probe.st.SealedSegments()
	return rp, nil
}

type answered struct {
	report             string
	q                  *perfxplain.Query
	x                  *perfxplain.Explanation
	totalMS, explainMS float64
}

// answer is serve.compute, call for call, with a span around each.
func (rp *replayed) answer(ctx context.Context, log *perfxplain.Log, gq gen.Question, index int, deep bool) (answered, error) {
	var out answered
	var err error
	var sum time.Duration
	step := func(name string, parent int, f func()) {
		if err != nil {
			return
		}
		_, d := rp.tr.time(name, parent, index, f)
		sum += d
	}
	rp.tr.time("question", 0, index, func() {
		qid := len(rp.tr.spans)
		step("pxql.parse", qid, func() {
			if out.q, err = perfxplain.ParseQuery(gq.Query); err == nil {
				out.q.Bind(gq.Pair[0], gq.Pair[1])
			}
		})
		if err != nil {
			return
		}
		rp.tr.time("pxql.canonical", qid, index, func() { _ = out.q.String() })
		var ex *perfxplain.Explainer
		step("core.new_explainer", qid, func() { ex, err = perfxplain.NewExplainer(log, serverOptions(gq)) })
		if err != nil {
			return
		}
		defer ex.Close()
		if deep && gq.GenDespite {
			// The despite stage on its own; Explain below pays it again.
			rp.tr.time("core.despite_gen", qid, index, func() { _, err = ex.GenerateDespite(out.q) })
		}
		var before, after runtime.MemStats
		if deep {
			runtime.ReadMemStats(&before)
		}
		explainStart := sum
		step("core.explain", qid, func() {
			if gq.GenDespite {
				out.x, err = ex.ExplainWithDespiteContext(ctx, out.q)
			} else {
				out.x, err = ex.ExplainContext(ctx, out.q)
			}
		})
		out.explainMS = ms(sum - explainStart)
		if deep {
			runtime.ReadMemStats(&after)
			rp.allocMB = append(rp.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			rp.allocs = append(rp.allocs, float64(after.Mallocs-before.Mallocs))
		}
		step("perfxplain.render", qid, func() { out.report = perfxplain.RenderReport(out.q, out.x) })
	})
	out.totalMS = ms(sum)
	return out, err
}

// sharded answers a's question on 4 shards over the pool's 2 subprocess
// workers, as pxqld -shards 4 -shard-workers 2 does.
func (rp *replayed) sharded(ctx context.Context, pool *perfxplain.WorkerPool, log *perfxplain.Log, a *asked, direct answered) error {
	opt := serverOptions(a.q)
	opt.Shards, opt.SharedPool = 4, pool
	var x *perfxplain.Explanation
	var err error
	rp.tr.time("shard.explain", 0, a.index, func() {
		var ex *perfxplain.Explainer
		if ex, err = perfxplain.NewExplainer(log, opt); err == nil {
			x, err = ex.ExplainContext(ctx, direct.q)
			ex.Close()
		}
	})
	if err != nil {
		return fmt.Errorf("sharded replay of question %d: %w", a.index, err)
	}
	rp.shardN++
	rp.directForShardMS = append(rp.directForShardMS, direct.explainMS)
	if perfxplain.RenderReport(direct.q, x) != a.want {
		rp.shardWrong++
	}
	return nil
}

// layerProbe times the internal packages directly, on its own copy of
// the log: the public API hides joblog.Log, and the probes must not warm
// the log the answers are timed on.
type layerProbe struct {
	tr   *tracer
	base *gen.Base
	st   *joblog.Store
	// space caches, per template, the base log's ordered pairs (a, b)
	// that satisfy the despite clause, and how many of them have a == b.
	space map[string][2]float64
}

func newLayerProbe(tr *tracer, r *timedRun) (*layerProbe, error) {
	p := &layerProbe{tr: tr, base: r.base, space: map[string][2]float64{}}
	f, err := os.Open(r.preloadCSV)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var l *joblog.Log
	id, _ := tr.time("joblog.read_csv", 0, noQuestion, func() { l, err = joblog.ReadCSV(f) })
	if err != nil {
		return nil, err
	}
	if fi, err := f.Stat(); err == nil {
		tr.count(id, "bytes", float64(fi.Size()))
	}
	tr.count(id, "rows", float64(l.Len()))
	tr.time("joblog.ingest_seal", 0, noQuestion, func() {
		p.st = joblog.NewStore(l.Schema, 0)
		for _, rec := range l.Records {
			if err = p.st.Append(rec); err != nil {
				return
			}
		}
		p.st.Seal()
	})
	if err != nil {
		return nil, err
	}
	var snap *joblog.Snapshot
	tr.time("joblog.snapshot", 0, noQuestion, func() { snap = p.st.Snapshot() })
	tr.time("joblog.index_build", 0, noQuestion, func() {
		cols := snap.Log().Columns()
		for f := 0; f < snap.Log().Schema.Len(); f++ {
			cols.SortedIndex(f)
		}
	})
	return p, nil
}

// append feeds one 540-row batch to the probe's store and takes the
// snapshot the next query would.
func (p *layerProbe) append(csv []byte) error {
	b, err := joblog.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return err
	}
	p.tr.time("joblog.append", 0, noQuestion, func() {
		for _, rec := range b.Records {
			if err = p.st.Append(rec); err != nil {
				return
			}
		}
	})
	p.tr.time("joblog.snapshot", 0, noQuestion, func() { p.st.Snapshot() })
	return err
}

func bind(gq gen.Question) (*pxql.Query, error) {
	q, err := pxql.Parse(gq.Query)
	if err != nil {
		return nil, err
	}
	q.ID1, q.ID2 = gq.Pair[0], gq.Pair[1]
	return q, nil
}

// enumerate times pair enumeration alone, with the server's MaxPairs, and
// counts what it kept against the pair space the generator knows the
// despite clause admits in a log of k replicas.
func (p *layerProbe) enumerate(gq gen.Question, index, k int) error {
	q, err := bind(gq)
	if err != nil {
		return err
	}
	log := p.st.Snapshot().Log()
	var pairs []core.LabeledPair
	id, _ := p.tr.time("core.enumerate", 0, index, func() {
		pairs = core.RelatedPairsP(log, features.Level3, q, core.DefaultConfig().MaxPairs, gq.Seed, 0)
	})
	p.tr.count(id, "pairs_kept", float64(len(pairs)))
	p.tr.count(id, "pair_space", p.pairSpace(gq.Template, q, k))
	return nil
}

// pairSpace is K²·S − K·D: every base pair satisfying the despite clause
// recurs between every two replicas (configuration columns are never
// jittered), less each record paired with itself.
func (p *layerProbe) pairSpace(template string, q *pxql.Query, k int) float64 {
	sd, ok := p.space[template]
	if !ok {
		d := features.NewDeriver(p.base.Log.Schema, features.Level3)
		for i, a := range p.base.Log.Records {
			for j, b := range p.base.Log.Records {
				if q.Despite.EvalPair(d, a, b) {
					sd[0]++
					if i == j {
						sd[1]++
					}
				}
			}
		}
		p.space[template] = sd
	}
	return float64(k)*float64(k)*sd[0] - float64(k)*sd[1]
}

// kernels times the two per-pair kernels under enumeration and
// materialization on the pairs one question keeps.
func (p *layerProbe) kernels(gq gen.Question) error {
	q, err := bind(gq)
	if err != nil {
		return err
	}
	log := p.st.Snapshot().Log()
	pairs := core.RelatedPairsP(log, features.Level3, q, core.DefaultConfig().MaxPairs, gq.Seed, 0)
	if len(pairs) == 0 {
		return fmt.Errorf("kernel probe: template %s keeps no pairs", gq.Template)
	}
	ai, bi := make([]int, len(pairs)), make([]int, len(pairs))
	for i, pr := range pairs {
		ai[i], bi[i] = pr.IA, pr.IB
	}
	cols := log.Columns()
	d := features.NewDeriver(log.Schema, features.Level3)
	cp := q.Despite.Compile(d, cols)
	sel := bitset.Make(tile)
	evalAll := func() {
		for lo := 0; lo < len(ai); lo += tile {
			cp.EvalBlock(ai[lo:min(lo+tile, len(ai))], bi[lo:min(lo+tile, len(bi))], sel)
		}
	}
	evalAll() // untimed: the first pass pages the planes in
	id, _ := p.tr.time("pxql.evalblock", 0, noQuestion, evalAll)
	p.tr.count(id, "pairs", float64(len(ai)))

	n := len(pairs)
	if n > 2000 {
		n = 2000
	}
	m := d.NewPairMatrix(n)
	id, _ = p.tr.time("features.materialize", 0, noQuestion, func() {
		for row := 0; row < n; row++ {
			m.Fill(cols, row, ai[row], bi[row])
		}
	})
	p.tr.count(id, "pairs", float64(n))
	return nil
}
