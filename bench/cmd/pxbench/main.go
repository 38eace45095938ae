// Command pxbench is the repo's one benchmark: it asks a real pxqld, over
// loopback, the paper's question ("why was job A slower than job B?") and
// reports how long the analyst waits, with a per-layer table underneath.
//
//	go run ./bench/cmd/pxbench -workload all -seed 1
//
// For each workload it generates deterministic logs from the seed, starts
// the built cmd/pxqld on an ephemeral loopback port, drives it closed-loop
// for -seconds, verifies every answer against an in-process one-shot
// rendering, and with -trace 1 replays the same questions in-process with
// a span around every call into a layer. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"

	"perfxplain/bench/result"
)

type options struct {
	seed      int64
	seconds   float64
	questions int
	trace     bool
	lives     int
	conns     int
}

type binaries struct{ pxqld, pxql string }

func main() { os.Exit(run(os.Args[1:])) }

// run is main with an exit code, so deferred clean-up (the temp dir, the
// server, the shard workers) happens on every path out.
func run(args []string) int {
	fs := flag.NewFlagSet("pxbench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run: paper_sweep, big_blocked, big_selective, grow_sharded or all")
	seed := fs.Int64("seed", 1, "drives the sweep, the replica jitter, pair choice and per-question seeds")
	seconds := fs.Float64("seconds", 10, "length of each workload's timed window, split evenly across its servers")
	questions := fs.Int("questions", 0, "end each phase of each server's window after this many distinct questions, so two runs ask exactly the same ones (0 = until its share of -seconds is up)")
	trace := fs.Int("trace", 1, "1 = also probe each layer in-process, print the per-layer table and write <out>/trace-<workload>.jsonl; 0 = end-to-end metrics only")
	outDir := fs.String("out", "out", "directory for result files, traces, built binaries and temporary CSVs")
	history := fs.String("history", "", "append the run as one line to this journal (history.jsonl is the committed one)")
	budget := fs.Duration("budget", 170*time.Second, "wall-clock budget per workload; the run aborts with an error rather than overrun it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		selected = []workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *seconds <= 0 {
		return fail(errors.New("-seconds must be positive"))
	}
	opt := options{seed: *seed, seconds: *seconds, questions: *questions, trace: *trace != 0,
		lives: 3,
		// Never more connections (or client goroutines) than cores: the
		// load generator shares the box with the server.
		conns: min(2, runtime.NumCPU())}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	binDir := filepath.Join(*outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	bins, err := buildBinaries(ctx, binDir)
	if err != nil {
		return fail(err)
	}

	env := result.NewEnvelope(opt.seed, opt.seconds, opt.questions, time.Now().UTC().Format(time.RFC3339))
	for _, w := range selected {
		wctx, wcancel := context.WithTimeout(ctx, *budget)
		res, err := runWorkload(wctx, w, opt, bins, tmp, *outDir, env)
		wcancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("-budget %v exceeded: %w", *budget, err)
			}
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		env.Workloads = append(env.Workloads, res)
		printWorkload(res)
	}

	name := fmt.Sprintf("result-%s-seed%d.json", *workloadName, opt.seed)
	if err := env.WriteFile(filepath.Join(*outDir, name)); err != nil {
		return fail(err)
	}
	if *history != "" {
		if err := env.AppendHistory(*history); err != nil {
			return fail(err)
		}
	}
	return printVerdict(env, opt.trace)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pxbench:", err)
	return 1
}

// runWorkload is one workload end to end: the timed run with tracing
// off, then the in-process replay that verifies it (and, traced, probes
// the layers).
func runWorkload(ctx context.Context, w workload, opt options, bins binaries, tmp, outDir string, env result.Envelope) (result.Workload, error) {
	r, err := runTimed(ctx, w, opt, bins, tmp)
	if err != nil {
		return result.Workload{}, err
	}
	rp, err := runReplay(ctx, r, opt, bins)
	if err != nil {
		return result.Workload{}, err
	}
	res := summarize(r, rp, opt.trace)
	for _, d := range result.EndToEnd {
		if v := res.EndToEnd[d.Name].Value; !(v > 0) {
			return result.Workload{}, fmt.Errorf("%s has no sample: -seconds %g is too short for this workload", d.Name, opt.seconds)
		}
	}
	if opt.trace {
		env.Workloads = []result.Workload{res}
		if err := rp.tr.write(filepath.Join(outDir, "trace-"+w.name+".jsonl"), env); err != nil {
			return result.Workload{}, err
		}
	}
	return res, nil
}

// printWorkload prints every metric by name and unit.
func printWorkload(w result.Workload) {
	fmt.Printf("\n== %s: %d attempted, %d failed (failed_share %.4f), %d answers verified, answers_sha256 %s\n",
		w.Name, w.Attempted, w.Failed, w.FailedShare, w.Answers, w.AnswersSHA256)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end metric\tvalue\tunit\tsamples\tbound")
	for _, d := range result.EndToEnd {
		v := w.EndToEnd[d.Name]
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%d\t%.0f%%\n", d.Name, v.Value, v.Unit, v.Samples, v.Bound*100)
	}
	if len(w.PerLayer) > 0 {
		fmt.Fprintln(tw, "per-layer metric\tvalue\tunit\tsamples\t")
		for _, d := range result.PerLayer {
			v := w.PerLayer[d.Name]
			fmt.Fprintf(tw, "%s\t%.4f\t%s\t%d\t\n", d.Name, v.Value, v.Unit, v.Samples)
		}
	}
	tw.Flush()
}

// printVerdict writes the machine-readable last line: with one workload,
// its end-to-end metrics (or, traced, its per-layer ones) under their own
// names; with several, each prefixed by its workload. The exit code is
// non-zero when any answer was wrong or any request failed.
func printVerdict(env result.Envelope, traced bool) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	verdict := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, w := range env.Workloads {
		verdict.Correct = verdict.Correct && w.Correct
		verdict.Attempted += w.Attempted
		verdict.Failed += w.Failed
		src := w.EndToEnd
		if traced {
			src = w.PerLayer
		}
		for name, v := range src {
			if len(env.Workloads) > 1 {
				name = w.Name + "." + name
			}
			verdict.Metrics[name] = metric{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(verdict)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("\n%s\n", line)
	if !verdict.Correct {
		return fail(fmt.Errorf("%d of %d requests failed or returned a wrong answer", verdict.Failed, verdict.Attempted))
	}
	return 0
}
