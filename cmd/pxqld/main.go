// Command pxqld is the warm PXQL explanation server: it holds an
// execution log resident in memory — columnar planes, sorted indexes and
// equality bitmaps stay hot between queries — owns one long-lived
// shard worker pool, and answers explanation requests over HTTP/JSON
// with a singleflight explanation cache and admission control in front
// of the engine.
//
//	pxqld -listen :9070 -log logs/jobs.csv -shards 4 -shard-workers 4
//
// -shards cuts each quadratic pair walk into that many self-contained
// specs; -shard-workers runs them on that many worker subprocesses
// (this executable with -shard-worker), which the server owns for its
// lifetime. The answer is identical with and without them.
//
// Endpoints (all JSON):
//
//	POST /api/explain    explain a PXQL query (body: {"query": "...", ...})
//	POST /api/evaluate   explain, then measure the paper's metrics on the log
//	POST /api/ingest     append a self-describing CSV log (?seal=1 to seal after)
//	POST /api/seal       force-seal the mutable tail
//	GET  /api/schema     the resident schema
//	GET  /api/domains    ?field=x — observed values or numeric range
//	GET  /api/stats      records, watermark, cache and admission counters
//	GET  /api/healthz    liveness
//
// Repeated queries hit the explanation cache (keyed by watermark,
// canonical query and semantic options — never stale across appends);
// concurrent identical queries collapse onto one computation. Responses
// are byte-identical to a one-shot `pxql` run over the same records.
// The interactive client is cmd/pxqlc. SIGINT or SIGTERM stops
// accepting, lets in-flight requests finish for up to shutdownTimeout,
// then closes the worker pool and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfxplain"
	"perfxplain/internal/serve"
)

func main() {
	listen := flag.String("listen", ":9070", "HTTP listen address")
	logPath := flag.String("log", "", "execution log CSV to preload (optional; /api/ingest can load later)")
	width := flag.Int("width", 3, "default explanation width (requests may override)")
	level := flag.Int("level", 3, "default feature level 1-3 (requests may override)")
	seed := flag.Int64("seed", 1, "default sampling seed (requests may override)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines per explanation (0 = all cores)")
	shards := flag.Int("shards", 0, "cut each quadratic pair walk into N self-contained specs (0 = eight per core); the answer is identical at every setting")
	shardWorkers := flag.Int("shard-workers", 0, "execute the specs on K worker subprocesses instead of this process (requires -shards)")
	shardWorker := flag.Bool("shard-worker", false, "serve shard tasks on stdin/stdout and exit (internal: spawned by -shard-workers)")
	maxConcurrent := flag.Int("max-concurrent", 2, "explanations/evaluations admitted at once")
	maxQueue := flag.Int("max-queue", 0, "requests allowed to wait for a slot before 429 (0 = 8*max-concurrent)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-query deadline (504 on expiry)")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on request-supplied deadlines")
	cacheSize := flag.Int("cache", 128, "explanation cache capacity in entries")
	flag.Parse()

	// Internal mode: the shared worker pool spawns this executable with
	// -shard-worker.
	if *shardWorker {
		if err := perfxplain.ShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pxqld: shard worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := checkShardFlags(*shards, *shardWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "pxqld:", err)
		flag.Usage()
		os.Exit(2)
	}

	if err := run(runOpts{
		listen: *listen, logPath: *logPath,
		width: *width, level: *level, seed: *seed, parallelism: *parallelism,
		shards: *shards, shardWorkers: *shardWorkers,
		maxConcurrent: *maxConcurrent, maxQueue: *maxQueue,
		timeout: *timeout, maxTimeout: *maxTimeout, cacheSize: *cacheSize,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pxqld:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	listen, logPath         string
	width, level            int
	seed                    int64
	parallelism             int
	shards, shardWorkers    int
	maxConcurrent, maxQueue int
	timeout, maxTimeout     time.Duration
	cacheSize               int
}

// checkShardFlags refuses shard flags that name no execution: a
// negative count, or workers without specs to run.
func checkShardFlags(shards, workers int) error {
	switch {
	case shards < 0:
		return errors.New("-shards must not be negative")
	case workers < 0:
		return errors.New("-shard-workers must not be negative")
	case workers > 0 && shards == 0:
		return errors.New("-shard-workers requires -shards")
	}
	return nil
}

func run(o runOpts) error {
	opt := perfxplain.Options{
		Width: o.width, DespiteWidth: o.width, FeatureLevel: o.level,
		Seed: o.seed, Parallelism: o.parallelism, Shards: o.shards,
	}
	// The server owns ONE worker pool for its whole lifetime — workers
	// (and the log slices of their last frame) survive across every
	// request, which is the point of a resident server.
	if o.shardWorkers > 0 {
		pool, err := perfxplain.NewWorkerPool(perfxplain.PoolOptions{Workers: o.shardWorkers})
		if err != nil {
			return err
		}
		defer pool.Close()
		opt.SharedPool = pool
	}

	cfg := serve.Config{
		Explain:        opt,
		MaxConcurrent:  o.maxConcurrent,
		MaxQueue:       o.maxQueue,
		DefaultTimeout: o.timeout,
		MaxTimeout:     o.maxTimeout,
		CacheSize:      o.cacheSize,
	}
	if o.logPath != "" {
		f, err := os.Open(o.logPath)
		if err != nil {
			return err
		}
		l, err := perfxplain.ReadLogCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		st := perfxplain.NewStore(l, 0)
		if err := st.Ingest(l); err != nil {
			return err
		}
		st.Seal()
		cfg.Store = st
		fmt.Fprintf(os.Stderr, "pxqld: loaded %d records (%d segments) from %s\n",
			st.Len(), st.SealedSegments(), o.logPath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Bind before saying so: the address printed is the one bound (so
	// -listen 127.0.0.1:0 is usable), and it accepts from that line on.
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pxqld: listening on %s\n", ln.Addr())
	srv := &http.Server{
		Handler:           serve.NewServer(cfg),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// A second signal kills the process outright.
	stop()
	drain, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	return srv.Shutdown(drain)
}

// A client gets readHeaderTimeout to send its request line and headers,
// and an idle keep-alive connection is closed after idleTimeout. Bodies
// and answers are bounded elsewhere: by size (serve) and by the query
// deadline (-timeout, -max-timeout). On a signal, requests in flight get
// shutdownTimeout to finish.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 30 * time.Second
)
