// Command pxqlexperiments regenerates every figure and table of the
// paper's evaluation section from a fresh simulated log:
//
//	pxqlexperiments -exp all
//	pxqlexperiments -exp fig3b -reps 10
//	pxqlexperiments -exp table3 -seed 7
//
// Experiments: fig3a, fig3b, fig3c, fig3d, fig4a, fig4b, fig4c, table3,
// examples (the qualitative width-3 explanations of Section 6.3), or all.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"perfxplain/internal/collect"
	"perfxplain/internal/eval"
	"perfxplain/internal/shard"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig3a..fig4c, table3, examples, all)")
	seed := flag.Int64("seed", 42, "sweep + harness seed")
	reps := flag.Int("reps", 10, "cross-validation repetitions")
	small := flag.Bool("small", false, "use the reduced 32-job grid (faster, noisier)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for repetitions and cells (0 = all cores); tables are identical at every setting")
	shards := flag.Int("shards", 0, "cut each quadratic pair walk into N self-contained specs (0 = eight per core); tables are identical at every setting")
	shardWorkers := flag.Int("shard-workers", 0, "execute the specs on K worker subprocesses instead of this process (requires -shards)")
	shardWorker := flag.Bool("shard-worker", false, "serve shard tasks on stdin/stdout and exit (internal: spawned by -shard-workers), or on a TCP listener with -listen")
	listen := flag.String("listen", "", "with -shard-worker: listen on this TCP address and serve remote coordinators (requires a token)")
	shardRemote := flag.String("shard-remote", "", "execute shards on remote socket workers at these comma-separated host:port addresses (requires -shards and a token)")
	shardToken := flag.String("shard-token", "", "shared auth token for remote shard workers (or set PXQL_SHARD_TOKEN)")
	verbose := flag.Bool("verbose", false, "print shard-runtime counters (frames, bytes shipped, slice-cache hits/misses) to stderr after each experiment run")
	flag.Parse()

	token := *shardToken
	if token == "" {
		token = os.Getenv("PXQL_SHARD_TOKEN")
	}

	if *shardWorker {
		var err error
		if *listen != "" {
			fmt.Fprintf(os.Stderr, "pxqlexperiments: serving shard workers on %s\n", *listen)
			err = shard.ListenAndServe(*listen, token)
		} else {
			err = shard.Worker(os.Stdin, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pxqlexperiments: shard worker:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*exp, *seed, *reps, *small, *parallelism, *shards, *shardWorkers, *shardRemote, token, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "pxqlexperiments:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64, reps int, small bool,
	parallelism, shards, shardWorkers int, shardRemote, shardToken string, verbose bool) error {

	if shardWorkers > 0 && shards <= 0 {
		return fmt.Errorf("-shard-workers requires -shards")
	}
	if shardRemote != "" && shards <= 0 {
		return fmt.Errorf("-shard-remote requires -shards")
	}
	// Validate the token up front: the sweep below can take minutes, and
	// a missing token should fail before it, not after.
	if shardRemote != "" && shardToken == "" {
		return fmt.Errorf("-shard-remote requires -shard-token (or PXQL_SHARD_TOKEN)")
	}
	sweep := collect.DefaultSweep(seed)
	if small {
		sweep = collect.SmallSweep(seed)
	}
	sweep.Parallelism = parallelism
	fmt.Printf("collecting %d simulated job executions...\n", sweep.NumJobs())
	t0 := time.Now()
	res, err := sweep.Collect()
	if err != nil {
		return err
	}
	fmt.Printf("collected %d jobs / %d tasks in %v\n\n", res.Jobs.Len(), res.Tasks.Len(), time.Since(t0))

	h := eval.NewHarness(res.Jobs, res.Tasks, seed)
	h.Reps = reps
	h.Parallelism = parallelism
	// One worker pool serves every repetition and experiment cell of the
	// whole run — its workers (and their cached log slices) survive from
	// one explainer and one evaluation to the next.
	var pool *shard.Pool
	if shards > 0 {
		h.Shards = shards
		switch {
		case shardRemote != "":
			var addrs []string
			for _, a := range strings.Split(shardRemote, ",") {
				if a = strings.TrimSpace(a); a != "" {
					addrs = append(addrs, a)
				}
			}
			workers := shardWorkers
			if workers <= 0 {
				workers = len(addrs)
			}
			pool = &shard.Pool{Dialer: &shard.SocketDialer{Addrs: addrs, Token: shardToken}, Workers: workers}
		case shardWorkers > 0:
			exe, err := os.Executable()
			if err != nil {
				return fmt.Errorf("resolve shard worker command: %w", err)
			}
			pool = &shard.Pool{Command: []string{exe, "-shard-worker"}, Workers: shardWorkers}
		}
		if pool != nil {
			defer pool.Close()
			h.Runner = pool
		}
	}
	if verbose && pool != nil {
		defer func() { fmt.Fprintln(os.Stderr, "shard runtime:", pool.Stats()) }()
	}

	type runner func() error
	table := func(f func() (*eval.Table, error)) runner {
		return func() error {
			t0 := time.Now()
			tab, err := f()
			if err != nil {
				return err
			}
			if err := tab.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("  [%v]\n\n", time.Since(t0).Round(time.Millisecond))
			return nil
		}
	}
	experiments := map[string]runner{
		"fig3a": table(func() (*eval.Table, error) {
			return h.PrecisionVsWidth(eval.WhyLastTaskFaster(), eval.DefaultWidths)
		}),
		"fig3b": table(func() (*eval.Table, error) {
			return h.PrecisionVsWidth(eval.WhySlowerDespiteSameNumInstances(), eval.DefaultWidths)
		}),
		"fig3c": table(func() (*eval.Table, error) {
			return h.DifferentJobLog(eval.DefaultWidths)
		}),
		"fig3d": table(func() (*eval.Table, error) {
			return h.LogSizeSweep([]float64{0.1, 0.2, 0.3, 0.4, 0.5}, 3)
		}),
		"fig4a": table(func() (*eval.Table, error) {
			return h.DespiteRelevance(eval.DefaultWidths)
		}),
		"fig4b": table(func() (*eval.Table, error) {
			return h.PrecisionGenerality([]int{1, 2, 3, 4, 5})
		}),
		"fig4c": table(func() (*eval.Table, error) {
			return h.FeatureLevels(eval.DefaultWidths)
		}),
		"table3": table(func() (*eval.Table, error) {
			return h.Table3(3)
		}),
		"examples": func() error {
			for _, tmpl := range eval.Templates() {
				out, err := h.ExampleExplanations(tmpl, 3)
				if err != nil {
					return err
				}
				fmt.Printf("Section 6.3 example explanations — %s:\n", tmpl.Name)
				for _, tech := range eval.AllTechniques {
					fmt.Printf("  %-12s %s\n", tech+":", out[tech])
				}
				fmt.Println()
			}
			return nil
		},
	}

	if exp == "all" {
		ids := make([]string, 0, len(experiments))
		for id := range experiments {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if err := experiments[id](); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	r, ok := experiments[strings.ToLower(exp)]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r()
}
