package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"perfxplain/bench/result"
	"perfxplain/bench/stat"
)

// summarize turns what the client saw and what the replay recomputed
// into the workload's result: verification first, then the metrics.
func summarize(r *timedRun, rp *replayed, traced bool) result.Workload {
	out := result.Workload{Name: r.w.name, EndToEnd: map[string]result.Value{}}

	// Verification. Every request counts as attempted; anything but a 200
	// carrying exactly the replay's report counts as failed.
	var missMS, hitUS []float64
	var status429, status504 int
	h := sha256.New()
	for _, a := range r.asked {
		out.Attempted++
		switch a.ans.status {
		case http.StatusTooManyRequests:
			status429++
		case http.StatusGatewayTimeout:
			status504++
		}
		if a.ans.err != nil || a.ans.report != a.want {
			out.Failed++
			if a.ans.err != nil {
				fmt.Fprintf(os.Stderr, "pxbench: %s: question %d: %v\n", r.w.name, a.index, a.ans.err)
			} else {
				fmt.Fprintf(os.Stderr, "pxbench: %s: question %d: server report differs from the in-process one\n--- server\n%s--- in-process\n%s",
					r.w.name, a.index, a.ans.report, a.want)
			}
			continue
		}
		if !a.timed {
			continue
		}
		if a.repeat {
			hitUS = append(hitUS, a.ans.ms*1000)
			continue
		}
		out.Answers++
		fmt.Fprintf(h, "%d\x00%s\x00", a.index, a.ans.report)
		if !a.duo {
			missMS = append(missMS, a.ans.ms)
		}
	}
	out.AnswersSHA256 = hex.EncodeToString(h.Sum(nil))
	out.Attempted += r.ingests + len(r.cold)
	out.Failed += r.ingestErr
	for _, a := range r.cold {
		if a.ans.err != nil {
			out.Failed++
			fmt.Fprintf(os.Stderr, "pxbench: %s: %v\n", r.w.name, a.ans.err)
		} else if a.ans.report != a.want {
			out.Failed++
			fmt.Fprintf(os.Stderr, "pxbench: %s: cold pxql output differs from the in-process report\n", r.w.name)
		}
	}
	out.Attempted += rp.shardN
	out.Failed += rp.shardWrong
	out.FailedShare = float64(out.Failed) / float64(out.Attempted)
	out.Correct = out.Failed == 0 && out.Answers > 0

	var rssMB []float64
	var before, after serverStats
	for _, lf := range r.lives {
		rssMB = append(rssMB, lf.rssMB)
		before.add(lf.before)
		after.add(lf.after)
	}
	rounds := roundMeans(soloMisses(r), len(r.w.cycle))
	coldRounds := roundMeans(r.cold, len(r.w.cycle))
	rates := blockRates(r)

	e2e := func(name string, v float64, samples int) {
		d := lookup(result.EndToEnd, name)
		out.EndToEnd[name] = result.Value{Value: v, Unit: d.Unit, Samples: samples, Bound: d.Bound, Better: d.Better}
	}
	e2e("setup_s", stat.Median(r.setupS), len(r.setupS))
	e2e("explain_p25_ms", stat.Quantile(rounds, undisturbed), len(rounds))
	e2e("queries_per_s", stat.Quantile(rates, 1-undisturbed), len(rates))
	e2e("ingest_ms", ingestLatency(r.ingestPhaseMS), len(r.ingestPhaseMS)*ingestPhase)
	e2e("cold_answer_s", stat.Quantile(coldRounds, undisturbed)/1000, len(r.cold))
	e2e("peak_rss_mb", stat.Median(rssMB), len(rssMB))

	if !traced {
		return out
	}
	out.PerLayer = map[string]result.Value{}
	set := func(name string, v float64, samples int) {
		out.PerLayer[name] = result.Value{Value: v, Unit: lookup(result.PerLayer, name).Unit, Samples: samples}
	}
	// med reports the median of a span's durations, scaled from ms; a
	// span that never ran (no gendespite question, no shards) reads 0.
	med := func(metric, spanName string, scale float64) float64 {
		xs := rp.tr.ms(spanName)
		v := 0.0
		if len(xs) > 0 {
			v = stat.Median(xs) * scale
		}
		set(metric, v, len(xs))
		return v
	}
	// perCount is a span's total time over a count it carries.
	perCount := func(metric, spanName, count string) {
		var ns, n float64
		for _, s := range rp.tr.spans {
			if s.Name == spanName {
				ns += float64(s.EndNS - s.StartNS)
				n += s.Counts[count]
			}
		}
		set(metric, ns/n, int(n))
	}
	firstCount := func(spanName, count string) float64 {
		for _, s := range rp.tr.spans {
			if s.Name == spanName {
				return s.Counts[count]
			}
		}
		return 0
	}

	readMS := med("joblog.read_csv_ms", "joblog.read_csv", 1)
	set("joblog.read_csv_mb_per_s", firstCount("joblog.read_csv", "bytes")/(1<<20)/(readMS/1000), 1)
	med("joblog.ingest_seal_ms", "joblog.ingest_seal", 1)
	med("joblog.snapshot_ms", "joblog.snapshot", 1)
	med("joblog.index_build_ms", "joblog.index_build", 1)
	med("joblog.append_ms", "joblog.append", 1)
	set("joblog.sealed_segments", float64(rp.sealed), 1)
	med("pxql.parse_us", "pxql.parse", 1000)
	med("pxql.canonical_us", "pxql.canonical", 1000)
	perCount("pxql.evalblock_ns_per_pair", "pxql.evalblock", "pairs")
	perCount("features.materialize_ns_per_pair", "features.materialize", "pairs")
	med("core.new_explainer_ms", "core.new_explainer", 1)
	enumMS := med("core.enumerate_ms", "core.enumerate", 1)
	kept := firstCount("core.enumerate", "pairs_kept")
	set("core.pairs_kept", kept, 1)
	set("core.enumerate_keep_ratio", kept/firstCount("core.enumerate", "pair_space"), 1)
	explainMS := med("core.explain_ms", "core.explain", 1)
	set("core.grow_ms", explainMS-enumMS, len(rp.tr.ms("core.explain")))
	med("core.despite_gen_ms", "core.despite_gen", 1)
	set("core.explain_alloc_mb", stat.Median(rp.allocMB), len(rp.allocMB))
	set("core.explain_allocs", stat.Median(rp.allocs), len(rp.allocs))
	med("core.evaluate_ms", "core.evaluate", 1)
	set("perfxplain.find_pair_ms", r.findPairMS, 1)
	med("perfxplain.render_us", "perfxplain.render", 1000)

	inproc := stat.Median(rp.inprocMS)
	set("serve.inproc_p50_ms", inproc, len(rp.inprocMS))
	set("serve.http_overhead_ms", stat.Median(missMS)-inproc, len(missMS))
	set("serve.explain_miss_p50_ms", stat.Median(missMS), len(missMS))
	hit := 0.0
	if len(hitUS) > 0 {
		hit = stat.Median(hitUS)
	}
	set("serve.hit_p50_us", hit, len(hitUS))
	pct, tail := stat.Tail(missMS)
	set("serve.explain_tail_ms", tail, len(missMS))
	set("serve.explain_tail_pct", pct, len(missMS))
	set("serve.explain_samples", float64(len(missMS)), 1)
	set("serve.cache_hits", float64(after.Cache.Hits-before.Cache.Hits), 1)
	set("serve.cache_misses", float64(after.Cache.Misses-before.Cache.Misses), 1)
	set("serve.collapsed", float64(after.Cache.Collapsed-before.Cache.Collapsed), 1)
	set("serve.computations", float64(after.Computations-before.Computations), 1)
	set("serve.rejected_429", float64(status429), 1)
	set("serve.timeout_504", float64(status504), 1)

	// Zero on every workload but the sharded one.
	n := float64(rp.shardN)
	per := func(total int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / n
	}
	overhead := 0.0
	if rp.shardN > 0 {
		overhead = stat.Median(rp.tr.ms("shard.explain")) - stat.Median(rp.directForShardMS)
	}
	set("shard.overhead_ms", overhead, rp.shardN)
	set("shard.bytes_sent_per_query", per(rp.shardStats.BytesSent), rp.shardN)
	set("shard.frames_per_query", per(rp.shardStats.FramesSent), rp.shardN)
	set("shard.slice_hits", float64(rp.shardStats.SliceHits), 1)
	set("shard.slice_misses", float64(rp.shardStats.SliceMisses), 1)
	set("shard.prefetch_sent", float64(rp.shardStats.PrefetchSent), 1)
	set("shard.prefetch_hits", float64(rp.shardStats.PrefetchHits), 1)
	return out
}

// undisturbed is the quantile the bounded timings are read at: the
// better quartile, p25 of a latency and p75 of a rate. The reference box
// shares its host, and what the neighbours take away comes in stretches
// of seconds to minutes and only ever adds time. Over five sets of ten
// runs of one commit the median latency spread (quartile distance over
// median) up to 20 % and once 26 %, the lower quartile up to 15 %, the
// 10th percentile 6 % on a calm day and 17 % on a busy one, where too few
// requests of a window ran undisturbed for it to settle. A bound is worth
// no more than the spread of the number it guards. The median and the
// tail a user sees on this box, neighbours included, are in the
// per-layer table (serve.explain_miss_p50_ms, serve.explain_tail_ms),
// unbounded.
const undisturbed = 0.25

// lookup finds a metric's definition; a name outside the table is a bug
// in this file.
func lookup(defs []result.Def, name string) result.Def {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("unknown metric " + name)
}

// soloMisses are the timed one-client cache misses, in question order.
func soloMisses(r *timedRun) []asked {
	var out []asked
	for _, a := range r.asked {
		if a.timed && !a.repeat && !a.duo {
			out = append(out, a)
		}
	}
	return out
}

// roundMeans folds latencies into rounds: one question of each of the n
// templates in the workload's cycle, in question order, reduced to their
// mean. A mixed workload's latencies cluster by template, and the median
// of such a sample sits in the gap between two clusters, where a few
// samples changing sides move it by the width of the gap; the median
// over rounds does not. On a single-template workload a round is one
// question. A life's trailing partial round and any round holding a
// failed request are left out.
func roundMeans(as []asked, n int) []float64 {
	var out []float64
	sum, have, life := 0.0, 0, -1
	for _, a := range as {
		if a.life != life || a.index%n == 0 {
			sum, have, life = 0, 0, a.life
		}
		if a.ans.err != nil || a.index%n != have {
			have = -1 // spoiled until the next round starts
			continue
		}
		sum += a.ans.ms
		if have++; have == n {
			out = append(out, sum/float64(n))
		}
	}
	return out
}

// blockRates is the throughput sample: for each life, the distinct
// explanations of its throughput phase (the two-client phase where there
// is one) in completion order, cut into blocks of rateBlockRounds rounds
// of the template cycle (one append round on a growing workload), each
// block giving completions over the wall since the block before it
// ended (a phase shorter than one block gives its whole-phase rate). The
// median over blocks is what a count over the whole window
// would be on a quiet box, without a stall of a few hundred milliseconds
// moving it.
func blockRates(r *timedRun) []float64 {
	block := rateBlockRounds * len(r.w.cycle)
	if r.w.grow {
		block = newPerRound
	}
	var out []float64
	for n, lf := range r.lives {
		var done []time.Time
		for _, a := range r.asked {
			if a.life == n && a.timed && !a.repeat && a.duo == (r.w.duoShare > 0) && a.ans.err == nil {
				done = append(done, a.ans.done)
			}
		}
		sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
		from := lf.rateStart
		if n := len(done); n > 0 && n < block {
			// A phase too short for one block still has a rate.
			out = append(out, float64(n)/done[n-1].Sub(from).Seconds())
		}
		for i := block; i <= len(done); i += block {
			out = append(out, float64(block)/done[i-1].Sub(from).Seconds())
			from = done[i-1]
		}
	}
	return out
}

// ingestLatency reduces the lives' ingest phases to one latency: batch
// by batch the fastest of the lives, then the mean over the phase. Every
// life ingests the same batches into the same state, so position i costs
// the same in each, whether it seals or not: the fastest life is that
// cost with the least interference on top, and the mean keeps the seals'
// share.
func ingestLatency(lives [][]float64) float64 {
	sum := 0.0
	for i := 0; i < ingestPhase; i++ {
		best := lives[0][i]
		for _, phase := range lives[1:] {
			best = min(best, phase[i])
		}
		sum += best
	}
	return sum / ingestPhase
}
