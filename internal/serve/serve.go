// Package serve implements pxqld's warm explanation server: an
// HTTP/JSON front end over a resident perfxplain.Store. Where the pxql
// CLI pays the whole pipeline — read the CSV, build columnar planes,
// sort indexes, spawn shard workers — on every invocation, the server
// pays it once and keeps everything hot: snapshots are memoized per
// watermark (so columnar planes, sorted indexes and equality bitmaps
// persist between queries), one shared shard worker pool outlives all
// requests, and fully-rendered explanations are cached under
// (watermark, canonical query, config fingerprint) with singleflight
// collapse so a herd of identical queries costs one computation.
//
// Responses are byte-identical to a one-shot `pxql` run over the same
// records: both render through perfxplain.RenderReport, and the engine
// guarantees byte-identical explanations at every parallelism and shard
// count.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfxplain"
)

// Config tunes the server; zero values select the documented defaults.
type Config struct {
	// Store is the resident execution log. Nil starts empty: the first
	// /api/ingest creates the store with the ingested log's schema.
	Store *perfxplain.Store
	// SealEvery is the segment-seal threshold used when the server
	// creates the store itself (non-positive selects the library
	// default).
	SealEvery int
	// Explain carries the base explanation options — the runtime knobs
	// (Parallelism, Shards, SharedPool) and default semantic knobs that
	// per-request fields override. SharedPool is the warm fleet: set it
	// so shard workers survive across requests.
	Explain perfxplain.Options
	// MaxConcurrent bounds the explanations/evaluations running at once
	// (default 2; the pipeline is internally parallel).
	MaxConcurrent int
	// MaxQueue bounds the requests waiting for a slot; beyond it
	// requests are rejected with 429 (default 8*MaxConcurrent).
	MaxQueue int
	// DefaultTimeout is the per-query deadline when the request does not
	// set one (default 60s). Deadline expiry returns 504.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines (default 5m).
	MaxTimeout time.Duration
	// CacheSize is the explanation cache capacity in entries
	// (default 128).
	CacheSize int
}

// Server answers PXQL explanation queries over a resident store.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	adm   *admission
	cache *expCache

	storeMu sync.Mutex
	store   *perfxplain.Store

	// computations counts engine runs that actually executed (cache
	// misses); the herd test's "32 identical queries, one computation"
	// guarantee is asserted against this counter.
	computations atomic.Int64
}

// NewServer builds a server over cfg. The returned server is an
// http.Handler.
func NewServer(cfg Config) *Server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		cache: newExpCache(cfg.CacheSize),
		store: cfg.Store,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/explain", s.handleExplain)
	mux.HandleFunc("/api/evaluate", s.handleEvaluate)
	mux.HandleFunc("/api/ingest", s.handleIngest)
	mux.HandleFunc("/api/seal", s.handleSeal)
	mux.HandleFunc("/api/schema", s.handleSchema)
	mux.HandleFunc("/api/domains", s.handleDomains)
	mux.HandleFunc("/api/stats", s.handleStats)
	mux.HandleFunc("/api/healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Computations returns the number of explanation-engine runs the server
// has executed (cache hits and collapsed herd followers excluded).
func (s *Server) Computations() int64 { return s.computations.Load() }

// badRequest marks client errors (parse failures, unknown fields,
// missing pairs) so the HTTP layer maps them to 400 instead of 500.
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }
func (e badRequest) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// httpStatus maps a pipeline error to its response code: 429 for
// admission rejection, 504 for deadline/cancellation, 413 for a body
// past its limit, 400 for client errors (a log of another schema is
// one), 500 otherwise.
func httpStatus(err error) int {
	var (
		br       badRequest
		tooLarge *http.MaxBytesError
		schema   *perfxplain.SchemaError
	)
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &br), errors.As(err, &schema):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), errorResponse{Error: err.Error()})
}

// ExplainRequest is the JSON body of /api/explain and /api/evaluate.
// Zero-valued semantic fields inherit the server's Config.Explain
// defaults; runtime knobs (parallelism, shards, the worker pool) are
// server-side only, because they cannot change the answer's bytes.
type ExplainRequest struct {
	// Query is the PXQL source (required).
	Query string `json:"query"`
	// Pair binds the pair of interest by record ID, overriding the FOR
	// clause.
	Pair []string `json:"pair,omitempty"`
	// Find picks a pair of interest automatically when the query leaves
	// it unbound (deterministic per watermark and seed).
	Find bool `json:"find,omitempty"`
	// GenDespite generates a despite extension before explaining.
	GenDespite bool `json:"gen_despite,omitempty"`

	Width        int    `json:"width,omitempty"`
	DespiteWidth int    `json:"despite_width,omitempty"`
	Level        int    `json:"level,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	MaxPairs     int    `json:"max_pairs,omitempty"`
	Target       string `json:"target,omitempty"`

	// TimeoutMS is the per-query deadline in milliseconds (0 selects the
	// server default; values above the server maximum are clipped).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ExplainResponse is the JSON answer of /api/explain.
type ExplainResponse struct {
	// Report is the canonical rendering — byte-identical to the pxql
	// CLI's stdout for the same records and options.
	Report string `json:"report"`
	// Pair is the bound pair of interest (useful with Find).
	Pair []string `json:"pair"`

	Despite    string  `json:"despite"`
	Because    string  `json:"because"`
	Precision  float64 `json:"precision"`
	Generality float64 `json:"generality"`
	Relevance  float64 `json:"relevance"`

	// Watermark is the store generation the answer was computed at.
	Watermark uint64 `json:"watermark"`
	// Cached is true when this response was served from the cache or
	// collapsed onto another request's in-flight computation.
	Cached bool `json:"cached"`
}

// EvaluateResponse is the JSON answer of /api/evaluate: the explanation
// plus the paper's quality metrics measured over the full resident log.
type EvaluateResponse struct {
	ExplainResponse
	Eval perfxplain.Metrics `json:"eval"`
}

// explainResult is the cached unit: the wire response plus the live
// explanation objects, so /api/evaluate can reuse a cached explanation
// without re-parsing. All fields are immutable after construction.
type explainResult struct {
	resp ExplainResponse
	q    *perfxplain.Query
	x    *perfxplain.Explanation
}

// resident returns the store, or the 400 every read answers before the
// first ingest.
func (s *Server) resident() (*perfxplain.Store, error) {
	s.storeMu.Lock()
	st := s.store
	s.storeMu.Unlock()
	if st == nil {
		return nil, badRequestf("no log loaded: POST a CSV log to /api/ingest first")
	}
	return st, nil
}

// snapshot returns the resident log at its current watermark, as one
// atomic observation. Only handlers that read records call it.
func (s *Server) snapshot() (*perfxplain.Log, uint64, error) {
	st, err := s.resident()
	if err != nil {
		return nil, 0, err
	}
	log, gen := st.SnapshotAt()
	return log, gen, nil
}

// mergeOptions resolves a request's semantic knobs over the server's
// base options. Runtime knobs pass through from the base untouched.
func (s *Server) mergeOptions(req *ExplainRequest) perfxplain.Options {
	opt := s.cfg.Explain
	if req.Width > 0 {
		opt.Width = req.Width
	}
	if req.DespiteWidth > 0 {
		opt.DespiteWidth = req.DespiteWidth
	} else if req.Width > 0 {
		opt.DespiteWidth = req.Width
	}
	if req.Level > 0 {
		opt.FeatureLevel = req.Level
	}
	if req.Seed != 0 {
		opt.Seed = req.Seed
	}
	if req.MaxPairs > 0 {
		opt.MaxPairs = req.MaxPairs
	}
	if req.Target != "" {
		opt.Target = req.Target
	}
	return opt
}

// fingerprint digests the semantic knobs — exactly the fields that can
// change the answer's bytes. Parallelism, shard count and pool choice
// are deliberately absent: the engine is byte-identical across them, so
// including them would only split the cache.
func fingerprint(opt perfxplain.Options, find, genDespite bool) string {
	return fmt.Sprintf("w%d dw%d ss%d mp%d lvl%d seed%d tgt%q div%v find%v gd%v",
		opt.Width, opt.DespiteWidth, opt.SampleSize, opt.MaxPairs, opt.FeatureLevel,
		opt.Seed, opt.Target, opt.DiverseSample, find, genDespite)
}

// reqContext derives the per-query context: the request's deadline
// clipped to the server maximum, or the server default.
func (s *Server) reqContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// explain is the shared engine behind /api/explain and /api/evaluate:
// parse, canonicalize, consult the cache (collapsing concurrent
// identical queries), and compute under admission control on a miss.
// (log, gen) is the request's one snapshot: whatever else the request
// does with the log happens at the same watermark.
func (s *Server) explain(ctx context.Context, log *perfxplain.Log, gen uint64, req *ExplainRequest) (*explainResult, bool, error) {
	if strings.TrimSpace(req.Query) == "" {
		return nil, false, badRequestf("empty query")
	}
	q, err := perfxplain.ParseQuery(req.Query)
	if err != nil {
		return nil, false, badRequest{err}
	}
	if len(req.Pair) > 0 {
		if len(req.Pair) != 2 || req.Pair[0] == "" || req.Pair[1] == "" {
			return nil, false, badRequestf("pair must be two record IDs")
		}
		q.Bind(req.Pair[0], req.Pair[1])
	}
	if id1, _ := q.Pair(); id1 == "" && !req.Find {
		return nil, false, badRequestf("no pair of interest: add a FOR clause, pair, or find")
	}
	opt := s.mergeOptions(req)

	// The canonical rendering of the (possibly rebound) query plus the
	// semantic fingerprint and watermark identify the answer's bytes.
	key := fmt.Sprintf("%d|%s|%s", gen, q.String(), fingerprint(opt, req.Find, req.GenDespite))

	v, shared, err := s.cache.do(ctx, key, func() (any, error) {
		return s.compute(ctx, log, gen, q, req, opt)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*explainResult), shared, nil
}

// compute runs the explanation engine once, as a flight leader, under
// admission control. Followers collapsed onto this flight never touch
// the admission semaphore: a herd of identical queries consumes one
// slot and one computation.
func (s *Server) compute(ctx context.Context, log *perfxplain.Log, gen uint64,
	q *perfxplain.Query, req *ExplainRequest, opt perfxplain.Options) (*explainResult, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()
	s.computations.Add(1)

	if id1, _ := q.Pair(); id1 == "" {
		id1, id2, ok := perfxplain.FindPairOfInterestP(log, q, opt.Seed, opt.Parallelism)
		if !ok {
			return nil, badRequestf("no pair in the log satisfies the query")
		}
		q.Bind(id1, id2)
	}

	ex, err := perfxplain.NewExplainer(log, opt)
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	var x *perfxplain.Explanation
	if req.GenDespite {
		x, err = ex.ExplainWithDespiteContext(ctx, q)
	} else {
		x, err = ex.ExplainContext(ctx, q)
	}
	if err != nil {
		return nil, err
	}

	id1, id2 := q.Pair()
	resp := ExplainResponse{
		Report:     perfxplain.RenderReport(q, x),
		Pair:       []string{id1, id2},
		Despite:    x.Despite(),
		Because:    x.Because(),
		Precision:  x.TrainPrecision(),
		Generality: x.TrainGenerality(),
		Relevance:  x.TrainRelevance(),
		Watermark:  gen,
	}
	return &explainResult{resp: resp, q: q, x: x}, nil
}

// maxQueryBytes bounds one /api/explain or /api/evaluate body; a longer
// one answers 413. A request is a PXQL query, two record IDs and a few
// numbers.
const maxQueryBytes = 1 << 20

func decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest{fmt.Errorf("decode request: %w", err)}
	}
	return nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req ExplainRequest
	if err := decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	log, gen, err := s.snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	res, shared, err := s.explain(ctx, log, gen, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := res.resp
	resp.Cached = shared
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req ExplainRequest
	if err := decodeRequest(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	log, gen, err := s.snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	res, shared, err := s.explain(ctx, log, gen, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	// The evaluation walk reuses the (possibly cached) explanation but is
	// itself a fresh admitted computation over the same snapshot.
	if err := s.adm.acquire(ctx); err != nil {
		writeError(w, err)
		return
	}
	opt := s.mergeOptions(&req)
	m, err := perfxplain.EvaluateContext(ctx, log, res.q, res.x, opt)
	s.adm.release()
	if err != nil {
		writeError(w, err)
		return
	}
	resp := EvaluateResponse{ExplainResponse: res.resp, Eval: m}
	resp.Cached = shared
	writeJSON(w, http.StatusOK, resp)
}

// IngestResponse is the JSON answer of /api/ingest and /api/seal.
type IngestResponse struct {
	Appended  int    `json:"appended"`
	Records   int    `json:"records"`
	Sealed    int    `json:"sealed_segments"`
	Watermark uint64 `json:"watermark"`
}

// maxIngestBytes bounds one /api/ingest body; a longer one answers 413
// with nothing appended. The paper-scale sweep is a quarter of a
// megabyte of CSV and 27 000 jobs are 13 MB; a larger log arrives in
// batches, which is also what keeps each append atomic and short.
const maxIngestBytes = 64 << 20

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	l, err := perfxplain.ReadLogCSV(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		writeError(w, badRequest{fmt.Errorf("parse CSV log: %w", err)})
		return
	}
	s.storeMu.Lock()
	if s.store == nil {
		s.store = perfxplain.NewStore(l, s.cfg.SealEvery)
	}
	st := s.store
	s.storeMu.Unlock()
	if err := st.Ingest(l); err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("seal") == "1" {
		st.Seal()
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		Appended:  l.Len(),
		Records:   st.Len(),
		Sealed:    st.SealedSegments(),
		Watermark: st.Watermark(),
	})
}

func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	s.storeMu.Lock()
	st := s.store
	s.storeMu.Unlock()
	if st == nil {
		writeError(w, badRequestf("no log loaded"))
		return
	}
	st.Seal()
	writeJSON(w, http.StatusOK, IngestResponse{
		Records:   st.Len(),
		Sealed:    st.SealedSegments(),
		Watermark: st.Watermark(),
	})
}

// SchemaResponse is the JSON answer of /api/schema.
type SchemaResponse struct {
	Fields    []perfxplain.FieldInfo `json:"fields"`
	Records   int                    `json:"records"`
	Watermark uint64                 `json:"watermark"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	st, err := s.resident()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SchemaResponse{Fields: st.Fields(), Records: st.Len(), Watermark: st.Watermark()})
}

// DomainResponse is the JSON answer of /api/domains: the observed value
// domain of one field at the current watermark.
type DomainResponse struct {
	Field     string   `json:"field"`
	Kind      string   `json:"kind"`
	Values    []string `json:"values,omitempty"`
	Min       *float64 `json:"min,omitempty"`
	Max       *float64 `json:"max,omitempty"`
	Watermark uint64   `json:"watermark"`
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	log, gen, err := s.snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	name := r.URL.Query().Get("field")
	if name == "" {
		writeError(w, badRequestf("missing ?field= parameter"))
		return
	}
	for _, f := range log.Fields() {
		if f.Name != name {
			continue
		}
		resp := DomainResponse{Field: f.Name, Kind: f.Kind, Watermark: gen}
		if f.Kind == "numeric" {
			if lo, hi, ok := log.NumericRange(name); ok {
				resp.Min, resp.Max = &lo, &hi
			}
		} else {
			resp.Values = log.Domain(name)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeError(w, badRequestf("unknown field %q", name))
}

// StatsResponse is the JSON answer of /api/stats.
type StatsResponse struct {
	Records      int            `json:"records"`
	Sealed       int            `json:"sealed_segments"`
	Watermark    uint64         `json:"watermark"`
	Computations int64          `json:"computations"`
	Cache        cacheStats     `json:"cache"`
	Admission    admissionStats `json:"admission"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Computations: s.computations.Load(),
		Cache:        s.cache.stats(),
		Admission:    s.adm.stats(),
	}
	s.storeMu.Lock()
	st := s.store
	s.storeMu.Unlock()
	if st != nil {
		resp.Records = st.Len()
		resp.Sealed = st.SealedSegments()
		resp.Watermark = st.Watermark()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
