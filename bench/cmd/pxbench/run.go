package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perfxplain/bench/gen"
	"perfxplain/internal/joblog"
)

// reserved question indices sit far above anything a window reaches, so
// the set-up and warm-up questions never collide with a timed one.
const reservedIndex = 1 << 30

// asked is one /api/explain round trip and where in the run it happened.
type asked struct {
	index int
	q     gen.Question
	// life is which of the run's servers was asked, and appended how many
	// 540-row batches that server had ingested by then: with the preload
	// they fix the watermark, and so the answer's bytes.
	life     int
	appended int
	// repeat marks the second asking of a question (an expected hit).
	repeat bool
	// timed marks requests inside the window; warm-ups are verified but
	// not counted in any latency.
	timed bool
	// duo marks requests of the two-client phase.
	duo bool
	ans answer
	// want is the report the in-process replay rendered for the question.
	want string
}

// life is one pxqld from start to stop. The timed window is split evenly
// across opt.lives fresh servers, and the ingest and cold-path samples
// are taken beside each, so that every median draws on stretches of the
// run some ten seconds apart: on a shared box a slow stretch lasts
// seconds, and a metric sampled inside one stretch reads its luck.
type life struct {
	// rateStart is when the phase queries_per_s is taken over began.
	rateStart     time.Time
	before, after serverStats
	rssMB         float64
}

// timedRun is everything the client side observed, tracing off.
type timedRun struct {
	w          workload
	base       *gen.Base
	qn         *gen.Questioner
	preloadCSV string
	batches    [][]byte // CSV of replica K, K+1, …: every life ingests them in this order
	findPairMS float64

	lives []life
	// setupS holds every life's set-up time and those of the extra
	// set-up-only servers.
	setupS []float64
	asked  []asked
	next   int // first question index not yet asked
	// ingests counts every /api/ingest round trip, ingestErr the refused
	// ones; ingestPhaseMS is each life's ingest phase, batch by batch.
	ingests, ingestErr int
	ingestPhaseMS      [][]float64
	// cold is every one-shot pxql run: ans.report is its standard output
	// and ans.ms its exec-to-exit wall.
	cold   []asked
	setupQ gen.Question
}

// runTimed generates the workload's inputs, then for each life sets a
// server up, drives its share of the timed window, the ingest phase and
// the cold path.
func runTimed(ctx context.Context, w workload, opt options, bins binaries, tmp string) (*timedRun, error) {
	base, err := gen.NewBase(opt.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	qn, err := gen.NewQuestioner(base)
	if err != nil {
		return nil, err
	}
	r := &timedRun{w: w, base: base, qn: qn, preloadCSV: filepath.Join(tmp, w.name+".csv"),
		// NewQuestioner runs FindPairOfInterestP once per template plus a
		// pool draw; the per-layer table reports its share per template.
		findPairMS: ms(time.Since(t0)) / float64(len(gen.Templates))}
	preload := base.Amplify(0, w.replicas)
	r.setupQ = qn.Question(w.cycle, reservedIndex)

	for n := 0; n < opt.lives; n++ {
		if err := r.runLife(ctx, n, preload, opt, bins); err != nil {
			return nil, err
		}
	}

	// A small log sets up in tens of milliseconds, where three samples
	// are at the mercy of process start-up: add set-up-only servers while
	// they are cheap.
	spent := 0.0
	for _, s := range r.setupS {
		spent += s
	}
	for n := opt.lives; len(r.setupS) < maxSetups && spent < extraSetupSeconds; n++ {
		srv, err := r.setUp(ctx, n, preload, opt, bins)
		if err != nil {
			return nil, err
		}
		srv.stop()
		spent += r.setupS[len(r.setupS)-1]
	}
	return r, nil
}

const (
	maxSetups         = 9
	extraSetupSeconds = 2.5
)

// setUp is generator output to first correct answer: write the preload
// CSV, start pxqld on it, ask one question. The caller stops the server.
func (r *timedRun) setUp(ctx context.Context, n int, preload *joblog.Log, opt options, bins binaries) (*server, error) {
	start := time.Now()
	if err := writeCSV(preload, r.preloadCSV); err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, bins.pxqld, opt.conns, append([]string{"-log", r.preloadCSV}, r.w.args...)...)
	if err != nil {
		return nil, err
	}
	a := srv.explain(ctx, r.setupQ)
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	r.asked = append(r.asked, asked{index: reservedIndex, q: r.setupQ, life: n, ans: a})
	if a.err != nil {
		srv.stop()
		return nil, fmt.Errorf("set-up question: %w", a.err)
	}
	return srv, nil
}

// runLife is one server: set-up, warm-up, its share of the timed window,
// the memory reading, the ingest phase, and, once it is stopped, its
// share of the cold runs.
func (r *timedRun) runLife(ctx context.Context, n int, preload *joblog.Log, opt options, bins binaries) error {
	w := r.w
	srv, err := r.setUp(ctx, n, preload, opt, bins)
	if err != nil {
		return err
	}
	defer srv.stop()
	var lf life

	// Warm every template the traffic uses before timing: the first
	// question of a shape pays lazy column and index builds that users
	// pay once per server, which is what setup_s is for.
	for j := 1; j < len(w.cycle); j++ {
		q := r.qn.Question(w.cycle, reservedIndex+j)
		r.asked = append(r.asked, asked{index: reservedIndex + j, q: q, life: n, ans: srv.explain(ctx, q)})
	}

	if lf.before, err = srv.stats(ctx); err != nil {
		return err
	}
	appended := 0
	if w.grow {
		appended, err = r.driveGrow(ctx, srv, n, &lf, growRounds(opt))
	} else {
		share := time.Duration(opt.seconds / float64(opt.lives) * float64(time.Second))
		err = r.driveDistinct(ctx, srv, n, &lf, share, opt)
	}
	if err != nil {
		return err
	}
	if lf.after, err = srv.stats(ctx); err != nil {
		return err
	}
	// Memory is read here, so that it is the window's and the ingest
	// phase can be as long as its own metric needs.
	if lf.rssMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	r.lives = append(r.lives, lf)

	// Ingest phase: appends against the resident log at this size. No
	// question follows, so the answers above stay valid.
	phase := make([]float64, ingestPhase)
	for i := range phase {
		if err := ctx.Err(); err != nil {
			return err
		}
		if phase[i], err = r.ingestOne(ctx, srv, appended+i); err != nil {
			return err
		}
	}
	r.ingestPhaseMS = append(r.ingestPhaseMS, phase)
	srv.stop()

	// The paper's path: one process per question, nothing resident. Every
	// life asks the same coldRuns questions, a different one each run, so
	// the metric does not hang on what one question happens to cost.
	for i := 0; i < w.coldRuns; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := r.qn.Question(w.cycle, reservedIndex+i)
		args := []string{"-log", r.preloadCSV, "-pair", q.Pair[0] + "," + q.Pair[1],
			"-seed", strconv.FormatInt(q.Seed, 10), "-query", q.Query}
		if q.GenDespite {
			args = append(args, "-gen-despite")
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bins.pxql, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		a := answer{report: stdout.String(), ms: ms(time.Since(start))}
		if err != nil {
			a.err = fmt.Errorf("cold pxql: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		r.cold = append(r.cold, asked{index: reservedIndex + i, q: q, life: n, ans: a})
	}
	return nil
}

func writeCSV(l *joblog.Log, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ingestOne appends the i-th replica after the preload, generating its
// CSV on first use (outside the timed request), and returns the round
// trip in ms. A refused batch is counted, not returned as an error.
func (r *timedRun) ingestOne(ctx context.Context, srv *server, i int) (float64, error) {
	for len(r.batches) <= i {
		k := r.w.replicas + len(r.batches)
		csv, err := r.base.CSV(k, k+1)
		if err != nil {
			return 0, err
		}
		r.batches = append(r.batches, csv)
	}
	d, err := srv.ingest(ctx, r.batches[i])
	r.ingests++
	if err != nil {
		r.ingestErr++
		fmt.Fprintf(os.Stderr, "pxbench: %s: %v\n", r.w.name, err)
	}
	return d, nil
}

// driveDistinct runs the closed loop of distinct questions for d: one
// client, then (on a workload with a duo share) two at once. Clients
// claim the next question index from a shared counter, so the questions
// answered are always a prefix of the seed's stream.
func (r *timedRun) driveDistinct(ctx context.Context, srv *server, n int, lf *life, d time.Duration, opt options) error {
	var next atomic.Int64
	next.Store(int64(r.next))
	var mu sync.Mutex
	var got []asked
	phase := func(clients int, d time.Duration, duo bool) {
		lf.rateStart = time.Now()
		deadline := lf.rateStart.Add(d)
		quota := next.Load() + int64(opt.questions)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && time.Now().Before(deadline) {
					i := next.Add(1) - 1
					if opt.questions > 0 && i >= quota {
						next.Add(-1)
						return
					}
					q := r.qn.Question(r.w.cycle, int(i))
					a := srv.explain(ctx, q)
					mu.Lock()
					got = append(got, asked{index: int(i), q: q, life: n, timed: true, duo: duo, ans: a})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	solo := time.Duration(float64(d) * (1 - r.w.duoShare))
	phase(1, solo, false)
	if r.w.duoShare > 0 {
		phase(min(2, opt.conns), d-solo, true)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].index < got[j].index })
	r.asked = append(r.asked, got...)
	r.next = int(next.Load())
	return ctx.Err()
}

// growRounds is how many append rounds each life of a growing workload
// runs. The count is fixed by -seconds rather than by the clock, because
// every round leaves the log 540 rows longer and the server and its
// workers holding more: a window that stopped on time would make the
// latency and memory of a fast run those of a bigger log. 1.8 rounds per
// second of window take about that second on the reference box.
func growRounds(opt options) int {
	return max(1, int(math.Round(1.8*opt.seconds/float64(opt.lives))))
}

// driveGrow alternates strictly: append one replica, ask newPerRound new
// questions, ask them again. Nothing overlaps, so each question's
// watermark, and hence its answer, is fixed by the round it is in. It
// returns the number of batches appended.
func (r *timedRun) driveGrow(ctx context.Context, srv *server, n int, lf *life, rounds int) (int, error) {
	lf.rateStart = time.Now()
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return round, err
		}
		if _, err := r.ingestOne(ctx, srv, round); err != nil {
			return round, err
		}
		first := r.next
		for pass := 0; pass < 2; pass++ {
			for i := first; i < first+newPerRound; i++ {
				q := r.qn.Question(r.w.cycle, i)
				r.asked = append(r.asked, asked{index: i, q: q, life: n, appended: round + 1,
					repeat: pass == 1, timed: true, ans: srv.explain(ctx, q)})
			}
		}
		r.next = first + newPerRound
	}
	return rounds, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
