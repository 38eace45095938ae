// Package perfxplain is a from-scratch reproduction of PerfXplain
// (Khoussainova, Balazinska, Suciu — "PerfXplain: Debugging MapReduce Job
// Performance", PVLDB 5(7), 2012): a system that explains the relative
// performance of pairs of MapReduce jobs or tasks from a log of past
// executions.
//
// A user asks a PXQL query — "despite these conditions, I observed this
// behaviour but expected that one; why?" — over a pair of executions, and
// PerfXplain answers with a (despite, because) explanation learned from
// the log:
//
//	jobs, tasks, _ := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 1})
//	ex, _ := perfxplain.NewExplainer(jobs, perfxplain.Options{})
//	q, _ := perfxplain.ParseQuery(`
//	    FOR J1, J2 WHERE J1.JobID = 'job-0004' AND J2.JobID = 'job-0020'
//	    DESPITE numinstances_issame = T AND pigscript_issame = T
//	    OBSERVED duration_compare = GT
//	    EXPECTED duration_compare = SIM`)
//	x, _ := ex.ExplainContext(context.Background(), q)
//	fmt.Println(x)
//
// The package also bundles the full substrate the paper's evaluation
// needed — a working MapReduce engine with a virtual-time EC2-style
// cluster simulator, a Ganglia-style monitor, the two Pig benchmark
// workloads over a synthetic Excite query log, Hadoop-style job-history
// parsing — plus the paper's two baseline explanation generators
// (RuleOfThumb and SimButDiff) and quality metrics (relevance, precision,
// generality).
package perfxplain

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"perfxplain/internal/baselines"
	"perfxplain/internal/collect"
	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/hadooplog"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

// Log is an execution log: one record per job or task with its raw
// features (configuration, data characteristics, counters, Ganglia
// averages) and duration.
type Log struct {
	l *joblog.Log
}

// Len returns the number of logged executions.
func (l *Log) Len() int { return l.l.Len() }

// IDs returns the record identifiers in log order.
func (l *Log) IDs() []string {
	out := make([]string, l.l.Len())
	for i := range out {
		out[i] = l.l.ID(i)
	}
	return out
}

// FeatureNames returns the raw feature names of the log's schema.
func (l *Log) FeatureNames() []string {
	fields := l.l.Schema.Fields()
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.Name
	}
	return out
}

// FieldInfo describes one schema field: its name and kind ("numeric" or
// "nominal").
type FieldInfo struct {
	Name string
	Kind string
}

// Fields returns the log's schema as (name, kind) pairs in field order —
// the introspection behind the explanation server's /api/schema endpoint
// and the REPL's .schema command.
func (l *Log) Fields() []FieldInfo { return fieldInfos(l.l.Schema) }

func fieldInfos(schema *joblog.Schema) []FieldInfo {
	fields := schema.Fields()
	out := make([]FieldInfo, len(fields))
	for i, f := range fields {
		out[i] = FieldInfo{Name: f.Name, Kind: f.Kind.String()}
	}
	return out
}

// Domain returns the sorted distinct non-missing values observed for a
// nominal field (nil for numeric or unknown fields). The scan is
// memoized on the log; callers must not mutate the result.
func (l *Log) Domain(field string) []string { return l.l.Domain(field) }

// NumericRange returns the observed min and max of a numeric field,
// ignoring missing values. ok is false when the field is absent,
// nominal, or entirely missing.
func (l *Log) NumericRange(field string) (min, max float64, ok bool) {
	return l.l.NumericRange(field)
}

// Feature returns the string form of a record's raw feature value; the
// empty string means missing. ok is false when the record or feature does
// not exist.
func (l *Log) Feature(id, feature string) (value string, ok bool) {
	r := l.l.Find(id)
	if r == nil {
		return "", false
	}
	if _, exists := l.l.Schema.Index(feature); !exists {
		return "", false
	}
	return l.l.Value(r, feature).String(), true
}

// Filter returns a new log holding the records for which keep returns
// true; keep receives the record's ID.
func (l *Log) Filter(keep func(id string) bool) *Log {
	return &Log{l: l.l.Filter(func(r *joblog.Record) bool { return keep(r.ID) })}
}

// WriteCSV writes the log in the self-describing CSV format.
func (l *Log) WriteCSV(w io.Writer) error { return l.l.WriteCSV(w) }

// WriteJSON writes the log as JSON.
func (l *Log) WriteJSON(w io.Writer) error { return l.l.WriteJSON(w) }

// ReadLogCSV reads a log written by WriteCSV. The log is held as
// columns only: no per-record structure is built for it.
func ReadLogCSV(r io.Reader) (*Log, error) {
	l, err := joblog.ReadCSVPlanes(r)
	if err != nil {
		return nil, err
	}
	return &Log{l: l}, nil
}

// ReadLogJSON reads a log written by WriteJSON.
func ReadLogJSON(r io.Reader) (*Log, error) {
	l, err := joblog.ReadJSON(r)
	if err != nil {
		return nil, err
	}
	return &Log{l: l}, nil
}

// SweepOptions configures Collect.
type SweepOptions struct {
	// Small runs a 32-job grid instead of the paper's full 540-job
	// Table 2 sweep — handy for tests and examples.
	Small bool
	// Seed makes the collected log reproducible.
	Seed int64
	// Parallelism bounds the worker goroutines simulating sweep cells
	// (<= 0 means all cores). The collected log is byte-identical at
	// every setting.
	Parallelism int
}

// Collect executes the paper's parameter sweep on the simulated cluster
// and returns the job and task execution logs.
func Collect(opt SweepOptions) (jobs, tasks *Log, err error) {
	sweep := collect.DefaultSweep(opt.Seed)
	if opt.Small {
		sweep = collect.SmallSweep(opt.Seed)
	}
	sweep.Parallelism = opt.Parallelism
	res, err := sweep.Collect()
	if err != nil {
		return nil, nil, err
	}
	return &Log{l: res.Jobs}, &Log{l: res.Tasks}, nil
}

// Store is a growable execution log: one set of columnar planes cut
// into sealed immutable segments plus a small mutable tail. Appends
// never invalidate what is already sealed — a sealed segment keeps its
// content hash, sorted order and equality bitmaps forever, so
// explainers over successive snapshots re-ship only the tail to shard
// workers while the sealed segments stay cached worker-side. Every
// method is safe for concurrent use; queries run against Snapshot(), a
// consistent watermark that later appends never mutate and that shares
// the store's planes instead of copying them.
type Store struct {
	s *joblog.Store
}

// NewStore returns an empty store with the same schema as like.
// sealEvery is the tail size at which a segment seals (non-positive
// selects the library default).
func NewStore(like *Log, sealEvery int) *Store {
	return &Store{joblog.NewStore(like.l.Schema, sealEvery)}
}

// SchemaError is the error Store.Ingest returns for a log whose schema
// is not the store's.
type SchemaError = joblog.SchemaError

// Ingest appends every record of l to the store, in log order, as one
// batch: a concurrent Snapshot holds none of it or all of it, and the
// watermark advances by l.Len(). l's schema must be the store's — the
// same field names and kinds in the same order — or nothing is appended
// and the error is a *SchemaError.
func (s *Store) Ingest(l *Log) error { return s.s.Ingest(l.l) }

// Seal forces the current tail into a sealed segment (a no-op on an
// empty tail). Appends normally seal automatically at the threshold;
// explicit sealing marks a natural boundary — the end of a batch —
// so the next snapshot ships no mutable tail at all.
func (s *Store) Seal() { s.s.Seal() }

// Len returns the number of records (sealed plus tail).
func (s *Store) Len() int { return s.s.Len() }

// SealedSegments returns the number of sealed segments.
func (s *Store) SealedSegments() int { return s.s.SealedSegments() }

// Fields returns the store's schema as (name, kind) pairs in field
// order, without assembling a snapshot.
func (s *Store) Fields() []FieldInfo { return fieldInfos(s.s.Schema()) }

// Snapshot returns the store's current contents as a Log: a consistent
// watermark that later appends never change. The snapshot knows its
// segments, so worker-backed walks over it ship per-segment hashed
// slices (wire forms and hashes are built the first time one does) —
// explanations are byte-identical to the same records in a flat log.
func (s *Store) Snapshot() *Log {
	return &Log{l: s.s.Snapshot().Log()}
}

// Watermark returns the store's generation counter: a monotonic value
// ticked by every append (and every forced seal). Two snapshots taken
// at the same watermark hold exactly the same records, so the watermark
// is a sound cache key for anything derived from a snapshot.
func (s *Store) Watermark() uint64 { return s.s.Gen() }

// SnapshotAt returns the current snapshot together with the watermark
// it was taken at, as one atomic observation — unlike a separate
// Watermark() + Snapshot() pair, no append can slip between the two.
// Snapshots are memoized per watermark, so repeated calls between
// appends return the same Log (with its warmed columnar planes, sorted
// indexes and bitmap memos).
func (s *Store) SnapshotAt() (*Log, uint64) {
	snap := s.s.Snapshot()
	return &Log{l: snap.Log()}, snap.Gen()
}

// LogsFromHistory parses Hadoop-style job-history streams (as written by
// the pxqlcollect tool) into job and task logs. History files carry
// counters, placement and timing but no Ganglia metrics; those features
// are missing in the result, which PerfXplain handles natively.
func LogsFromHistory(readers ...io.Reader) (jobs, tasks *Log, err error) {
	jobSchema := collect.JobSchema()
	taskSchema := collect.TaskSchema()
	jl := joblog.NewLog(jobSchema)
	tl := joblog.NewLog(taskSchema)
	for i, r := range readers {
		res, err := hadooplog.ReadJob(r)
		if err != nil {
			return nil, nil, fmt.Errorf("perfxplain: history stream %d: %w", i, err)
		}
		if err := jl.Append(collect.JobRecord(jobSchema, res, res.Start)); err != nil {
			return nil, nil, err
		}
		for _, tr := range collect.TaskRecords(taskSchema, res, 0) {
			if err := tl.Append(tr); err != nil {
				return nil, nil, err
			}
		}
	}
	return &Log{l: jl}, &Log{l: tl}, nil
}

// Query is a parsed PXQL query.
type Query struct {
	q *pxql.Query
}

// ParseQuery parses PXQL source (see the package example for the
// grammar). The FOR/WHERE clause binds the pair of interest.
func ParseQuery(src string) (*Query, error) {
	q, err := pxql.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{q}, nil
}

// Bind sets the query's pair of interest by record ID.
func (q *Query) Bind(id1, id2 string) {
	q.q.ID1, q.q.ID2 = id1, id2
}

// Pair returns the bound pair of interest.
func (q *Query) Pair() (id1, id2 string) { return q.q.ID1, q.q.ID2 }

// String renders the query in PXQL syntax.
func (q *Query) String() string { return q.q.String() }

// Options tunes explanation generation; zero values take the paper's
// defaults (width 3, sample 2000, precision weight 0.8, full feature set).
type Options struct {
	// Width is the number of predicates in the because clause.
	Width int
	// DespiteWidth is the width of generated despite extensions.
	DespiteWidth int
	// SampleSize is the balanced training-sample target.
	SampleSize int
	// FeatureLevel restricts explanation features: 1 = isSame only,
	// 2 = + compare/diff, 3 = full (default).
	FeatureLevel int
	// MaxPairs caps walked pair enumeration (0 = library default); a
	// question whose sample is drawn by rank walks nothing and ignores it.
	MaxPairs int
	// Seed drives sampling; runs are deterministic per seed.
	Seed int64
	// Target selects the performance metric being explained (default
	// "duration"). The paper's approach applies directly to any numeric
	// metric in the log.
	Target string
	// Parallelism bounds the worker goroutines used throughout the
	// explanation pipeline — pair enumeration, materialization, predicate
	// scoring and evaluation. Values <= 0 mean runtime.GOMAXPROCS(0), i.e.
	// all available cores. Explanations are byte-identical at every
	// setting: same seed, same answer, whatever the hardware.
	Parallelism int
	// Shards is the number of self-contained specs each quadratic walk —
	// pair enumeration and metric evaluation — is cut into. Without a
	// SharedPool the specs run on this process's cores and the count only
	// sets scheduling granularity (0 = eight per Parallelism worker);
	// with one it is required, and the specs ship to the pool's workers.
	// The training sample, growth and diagnostics always stay in this
	// process. Explanations are byte-identical at every shard count and
	// in every execution mode.
	Shards int
	// SharedPool executes shards on a caller-owned worker pool (see
	// NewWorkerPool). The pool outlives the explainers and evaluations
	// that use it — and so do its workers' slice caches; its owner
	// closes it.
	SharedPool *WorkerPool
}

// WorkerPool is a shared fleet of shard workers — subprocesses or
// remote socket workers — that many explainers and evaluations can use
// concurrently. Hoisting pool ownership out of per-explainer
// construction keeps workers (and the log slices cached on them) alive
// across repeated explanations; close it once, when all users are done.
type WorkerPool struct {
	p *shard.Pool
}

// PoolOptions configures NewWorkerPool.
type PoolOptions struct {
	// Workers is the number of worker connections (default: 1, or one
	// per address when Addrs is set).
	Workers int
	// Command is the subprocess argv (default: this executable with
	// -shard-worker appended). Ignored when Addrs is set.
	Command []string
	// Env is appended to each subprocess worker's environment.
	Env []string
	// Addrs selects remote socket workers listening on these addresses.
	Addrs []string
	// Token is the shared handshake secret; required with Addrs.
	Token string
}

// NewWorkerPool builds a shard worker pool. The fleet is dialed lazily
// on first use; Close terminates it.
func NewWorkerPool(opt PoolOptions) (*WorkerPool, error) {
	p, err := shard.NewPool(shard.PoolConfig(opt))
	if err != nil {
		return nil, err
	}
	return &WorkerPool{p}, nil
}

// Close terminates the pool's workers. It is idempotent and safe to
// call concurrently with in-flight work, which fails with transport
// errors rather than hanging.
func (wp *WorkerPool) Close() { wp.p.Close() }

// Stats returns the pool's runtime counters.
func (wp *WorkerPool) Stats() ShardStats {
	s := wp.p.Stats()
	return ShardStats{
		FramesSent: s.FramesSent, FramesReceived: s.FramesReceived,
		BytesSent: s.BytesSent, BytesReceived: s.BytesReceived,
		SliceHits: s.SliceHits, SliceMisses: s.SliceMisses,
		SliceBytesSaved: s.SliceBytesSaved,
	}
}

// ShardStats are the shard runtime's counters: protocol frames, frame
// bytes on metered transports, and the content-addressed slice cache's
// behaviour (hits = payloads not re-shipped; misses = full ships).
type ShardStats struct {
	FramesSent, FramesReceived int64
	BytesSent, BytesReceived   int64
	SliceHits, SliceMisses     int64
	SliceBytesSaved            int64
	// Deprecated: always zero since slice prefetch was removed; kept
	// only because bench/ reads them.
	PrefetchSent, PrefetchHits int64
}

// String renders the counters in the CLIs' -verbose format.
func (s ShardStats) String() string {
	return fmt.Sprintf("frames sent=%d received=%d; bytes sent=%d received=%d; slice cache hits=%d misses=%d bytes-saved=%d",
		s.FramesSent, s.FramesReceived, s.BytesSent, s.BytesReceived,
		s.SliceHits, s.SliceMisses, s.SliceBytesSaved)
}

// exec describes who walks the pair space under these options: this
// process, or the shared pool's workers, which receive the log's
// segments the first time a walk ships.
func (o Options) exec() (core.Exec, error) {
	ex := core.Exec{Parallelism: o.Parallelism, Shards: o.Shards}
	if o.SharedPool == nil {
		return ex, nil
	}
	if o.Shards <= 0 {
		return core.Exec{}, errors.New("perfxplain: Options.SharedPool requires Options.Shards")
	}
	ex.Runner = o.SharedPool.p
	return ex, nil
}

// Explainer answers PXQL queries over one log.
type Explainer struct {
	ex *core.Explainer
}

// NewExplainer builds an explainer over a job or task log. With a
// SharedPool, a question whose pairs are walked ships the log's segments
// as hashed slices — a Store.Snapshot's sealed segments and tail, a flat
// log's fixed-size runs — so re-explaining after appends re-ships only
// the tail; one whose sample is drawn by rank ships nothing.
func NewExplainer(log *Log, opt Options) (*Explainer, error) {
	cfg := core.Config{
		Width:        opt.Width,
		DespiteWidth: opt.DespiteWidth,
		SampleSize:   opt.SampleSize,
		MaxPairs:     opt.MaxPairs,
		Seed:         opt.Seed,
		Target:       opt.Target,
	}
	if opt.FeatureLevel != 0 {
		cfg.Level = features.Level(opt.FeatureLevel)
	}
	var err error
	if cfg.Exec, err = opt.exec(); err != nil {
		return nil, err
	}
	ex, err := core.NewExplainer(log.l, cfg)
	if err != nil {
		return nil, err
	}
	return &Explainer{ex}, nil
}

// Close releases nothing: worker pools are always their caller's. It
// stays because existing callers defer it.
func (e *Explainer) Close() {}

// Explanation is a generated (despite, because) answer plus its quality
// measured on the training log.
type Explanation struct {
	x *core.Explanation
	q *pxql.Query
}

// Despite returns the generated despite extension in PXQL syntax ("true"
// when none was generated).
func (x *Explanation) Despite() string { return x.x.Despite.String() }

// Because returns the because clause in PXQL syntax.
func (x *Explanation) Because() string { return x.x.Because.String() }

// TrainPrecision is P(observed | because ∧ despite) on the training
// sample.
func (x *Explanation) TrainPrecision() float64 { return x.x.TrainPrecision }

// TrainGenerality is P(because | despite) on the training sample.
func (x *Explanation) TrainGenerality() float64 { return x.x.TrainGenerality }

// TrainRelevance is P(expected | despite) on the related training pairs:
// exact over Definition 7's whole set when the sample was drawn by rank
// (one compare atom each for observed and expected, a despite clause
// blocking proves whole, positive targets), an estimate over the pairs
// kept after MaxPairs thinning when it was walked.
func (x *Explanation) TrainRelevance() float64 { return x.x.TrainRelevance }

// String renders the explanation in the paper's DESPITE/BECAUSE form.
func (x *Explanation) String() string { return x.x.String() }

// AtomDetail is the cumulative training quality of one because-clause
// prefix, in clause order: the most important predicates come first.
type AtomDetail struct {
	// Atom is the predicate in PXQL syntax.
	Atom string
	// Precision is P(observed | atoms so far) on the training sample.
	Precision float64
	// Generality is P(atoms so far) on the training sample.
	Generality float64
}

// AtomDetails reports how each successive because-clause predicate
// tightened the explanation.
func (x *Explanation) AtomDetails() []AtomDetail {
	out := make([]AtomDetail, 0, len(x.x.Atoms))
	for _, st := range x.x.Atoms {
		out = append(out, AtomDetail{
			Atom:       st.Atom.String(),
			Precision:  st.Precision,
			Generality: st.Generality,
		})
	}
	return out
}

// RenderReport renders the canonical query-plus-explanation report the
// pxql command prints — query, explanation and training quality. The
// server returns exactly this string, so a cached answer is
// byte-identical to a one-shot CLI run over the same records.
func RenderReport(q *Query, x *Explanation) string {
	var b strings.Builder
	b.WriteString("query:\n")
	b.WriteString(indentReport(q.String()))
	b.WriteString("\nexplanation:\n")
	b.WriteString(indentReport(x.String()))
	fmt.Fprintf(&b, "\ntraining: precision %.3f, generality %.3f, relevance %.3f\n",
		x.TrainPrecision(), x.TrainGenerality(), x.TrainRelevance())
	return b.String()
}

func indentReport(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

// ExplainContext generates a because clause for the query (the user's
// despite clause is used as-is). The pipeline checks ctx between stages
// and at every growth round, returning ctx.Err() once it is done. The
// context carries cancellation only — a completed explanation is
// byte-identical to an uncancelled run with the same options, whatever
// deadline the context had.
func (e *Explainer) ExplainContext(ctx context.Context, q *Query) (*Explanation, error) {
	x, err := e.ex.Explain(ctx, q.q)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// ExplainWithDespiteContext first generates a despite extension (for
// under-specified queries), then the because clause in its context, with
// ExplainContext's cancellation semantics.
func (e *Explainer) ExplainWithDespiteContext(ctx context.Context, q *Query) (*Explanation, error) {
	x, err := e.ex.ExplainWithDespite(ctx, q.q)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// GenerateDespite produces only the despite extension for a query.
func (e *Explainer) GenerateDespite(q *Query) (string, error) {
	des, err := e.ex.GenerateDespite(context.Background(), q.q)
	if err != nil {
		return "", err
	}
	return des.String(), nil
}

// DespiteToThreshold generates the shortest despite extension whose
// training relevance reaches the threshold (paper Section 4.2's
// relevance-threshold modification). met reports whether the threshold
// was reached; the returned clause is PerfXplain's best effort either
// way.
func (e *Explainer) DespiteToThreshold(q *Query, threshold float64) (despite string, relevance float64, met bool, err error) {
	des, rel, ok, err := e.ex.DespiteToThreshold(context.Background(), q.q, threshold)
	if err != nil {
		return "", 0, false, err
	}
	return des.String(), rel, ok, nil
}

// NewTargetQuery builds an unbound query about an arbitrary numeric
// metric: "I observed <target> to be <obsCode> (LT/SIM/GT) but expected
// <expCode>". Combine with Bind or FindPairOfInterestP, and set
// Options.Target to the same metric when building the Explainer.
func NewTargetQuery(target, obsCode, expCode string) (*Query, error) {
	q, err := core.TargetQuery(target, obsCode, expCode)
	if err != nil {
		return nil, err
	}
	return &Query{q}, nil
}

// ShardWorker serves shard tasks from r until EOF, writing results to w
// — the loop behind the pxql binaries' -shard-worker mode. Programs
// embedding this package can expose the same mode (reading stdin,
// writing stdout) and name themselves in PoolOptions.Command to run
// explanation shards on their own subprocesses.
func ShardWorker(r io.Reader, w io.Writer) error {
	return shard.Worker(r, w)
}

// ServeShardWorkers turns this process into a remote shard worker: it
// serves the shard protocol on every connection a coordinator opens on
// l — the loop behind `pxql -shard-worker -listen`. Connections are
// authenticated with an HMAC challenge over the shared token (which must
// be non-empty and match the coordinator's PoolOptions.Token); each
// connection gets its own worker loop and content-addressed slice cache.
// The call blocks until the listener fails.
func ServeShardWorkers(l net.Listener, token string) error {
	//pxql:realtime — the HMAC handshake timestamps challenges; server mode is off the deterministic path
	return shard.Serve(l, token)
}

// Metrics are the paper's explanation-quality measures evaluated on a
// log (Definitions 4-6).
type Metrics struct {
	Relevance  float64
	Precision  float64
	Generality float64
}

// Evaluate measures an explanation for a query against a log, typically
// a held-out one. The quadratic evaluation walk is cut into
// Options.Shards specs and runs on this process's cores, or on
// Options.SharedPool's workers, whose cached log slices make repeated
// evaluations cheap to ship. The metrics are identical in every mode.
func Evaluate(log *Log, q *Query, x *Explanation, opt Options) (Metrics, error) {
	return EvaluateContext(context.Background(), log, q, x, opt)
}

// EvaluateContext is Evaluate with cancellation: the quadratic walk
// checks ctx before each spec in this process (before the fan-out on
// workers), returning ctx.Err() once it is done. Completed metrics are
// identical to an uncancelled run.
func EvaluateContext(ctx context.Context, log *Log, q *Query, x *Explanation, opt Options) (Metrics, error) {
	ex, err := opt.exec()
	if err != nil {
		return Metrics{}, err
	}
	maxPairs := opt.MaxPairs
	if maxPairs == 0 {
		maxPairs = core.DefaultConfig().MaxPairs
	}
	m, err := core.EvaluateExplanation(ctx, log.l, features.Level3, q.q, x.x, maxPairs, opt.Seed, ex)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{Relevance: m.Relevance, Precision: m.Precision, Generality: m.Generality}, nil
}

// RuleOfThumbExplain runs the RuleOfThumb baseline (paper Section 5.1):
// the top-width globally important features the pair disagrees on.
func RuleOfThumbExplain(log *Log, q *Query, width int, seed int64) (*Explanation, error) {
	if width <= 0 {
		width = 3
	}
	rot, err := baselines.NewRuleOfThumb(log.l, "duration", seed)
	if err != nil {
		return nil, err
	}
	x, err := rot.Explain(q.q, width)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// SimButDiffExplainP runs the SimButDiff baseline (paper Section 5.2):
// what-if analysis over isSame features of pairs similar to the pair of
// interest. parallelism bounds the pair-enumeration workers (<= 0 means
// GOMAXPROCS); the explanation is identical at every setting.
// RuleOfThumb has no such argument: its RReliefF neighbour searches
// already run on all cores (bit-identically — see
// relief.Config.Parallelism), and the weight accumulation itself is
// sequential.
func SimButDiffExplainP(log *Log, q *Query, width int, seed int64, parallelism int) (*Explanation, error) {
	if width <= 0 {
		width = 3
	}
	sbd, err := baselines.NewSimButDiff(log.l, baselines.SimButDiffConfig{Seed: seed, Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	x, err := sbd.Explain(q.q, width)
	if err != nil {
		return nil, err
	}
	return &Explanation{x: x, q: q.q}, nil
}

// FindPairOfInterestP returns a pair of record IDs in the log that
// satisfies the query's despite and observed clauses — a convenience for
// demos and tests that need a concrete pair to ask about. Among the
// matching pairs it returns the most salient one: the largest gap on the
// raw feature the observed clause compares (a user asks about the case
// that caught their eye, not a borderline one). ok is false when no such
// pair exists. parallelism bounds the search's workers (<= 0 means
// GOMAXPROCS); the selected pair is identical at every setting.
func FindPairOfInterestP(log *Log, q *Query, seed int64, parallelism int) (id1, id2 string, ok bool) {
	pairs := core.RelatedPairsP(log.l, features.Level3, q.q, 50000, seed, parallelism)
	raw := ""
	if len(q.q.Observed) > 0 {
		raw, _ = features.ParseName(q.q.Observed[0].Feature)
	}
	bestGap := -1.0
	for _, p := range pairs {
		if !p.Observed {
			continue
		}
		gap := 0.0
		if raw != "" {
			v1 := log.l.Value(p.A, raw)
			v2 := log.l.Value(p.B, raw)
			if v1.Kind == joblog.Numeric && v2.Kind == joblog.Numeric && v1.Num > 0 && v2.Num > 0 {
				gap = v1.Num / v2.Num
				if gap < 1 {
					gap = 1 / gap
				}
			}
		}
		if gap > bestGap {
			bestGap = gap
			id1, id2, ok = p.A.ID, p.B.ID, true
		}
	}
	return id1, id2, ok
}
