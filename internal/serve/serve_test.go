package serve

// End-to-end suite for the warm explanation server, designed to run
// under -race: concurrent identical herds (singleflight collapse),
// distinct queries racing a live ingest (watermark isolation), the
// admission-control rejection paths, and byte-identity of every server
// answer against a locally-computed one-shot report over the same
// records.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perfxplain"
)

// testQuery is the goldens' why-slower query, unbound: the server picks
// the pair of interest with find.
const testQuery = "DESPITE numinstances_issame = T AND pigscript_issame = T\n" +
	"OBSERVED duration_compare = GT\n" +
	"EXPECTED duration_compare = SIM"

var (
	fixtureOnce sync.Once
	fixtureJobs *perfxplain.Log
	fixtureCSV  []byte
)

// fixture collects the small sweep's job log once per test binary.
func fixture(t *testing.T) (*perfxplain.Log, []byte) {
	t.Helper()
	fixtureOnce.Do(func() {
		jobs, _, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 1})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := jobs.WriteCSV(&buf); err != nil {
			panic(err)
		}
		fixtureJobs, fixtureCSV = jobs, buf.Bytes()
	})
	return fixtureJobs, fixtureCSV
}

// baseOptions is the semantic configuration every test (and its local
// reference computation) runs under.
func baseOptions() perfxplain.Options {
	return perfxplain.Options{Width: 3, DespiteWidth: 3, FeatureLevel: 3, Seed: 1}
}

// seededServer builds a server over a store holding the fixture log
// (sealed), returning the server, its HTTP front and the store handle.
func seededServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *perfxplain.Store) {
	t.Helper()
	jobs, _ := fixture(t)
	st := perfxplain.NewStore(jobs, 0)
	if err := st.Ingest(jobs); err != nil {
		t.Fatal(err)
	}
	st.Seal()
	cfg.Store = st
	if cfg.Explain.Width == 0 {
		cfg.Explain = baseOptions()
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, st
}

// postExplain sends an explain (or evaluate) request and decodes the
// response, returning the HTTP status alongside.
func postExplain(t *testing.T, url string, req ExplainRequest) (int, ExplainResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out ExplainResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decode response: %v\n%s", err, buf.String())
		}
	}
	return resp.StatusCode, out, buf.String()
}

// localReport computes the one-shot CLI answer for the query over a
// log: the reference every server response must match byte-for-byte.
func localReport(t *testing.T, log *perfxplain.Log, query string, opt perfxplain.Options) string {
	t.Helper()
	q, err := perfxplain.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	if id1, _ := q.Pair(); id1 == "" {
		id1, id2, ok := perfxplain.FindPairOfInterestP(log, q, opt.Seed, opt.Parallelism)
		if !ok {
			t.Fatal("no pair of interest in fixture log")
		}
		q.Bind(id1, id2)
	}
	ex, err := perfxplain.NewExplainer(log, opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return perfxplain.RenderReport(q, x)
}

func TestExplainMatchesOneShot(t *testing.T) {
	s, ts, st := seededServer(t, Config{})
	status, resp, raw := postExplain(t, ts.URL+"/api/explain", ExplainRequest{Query: testQuery, Find: true})
	if status != http.StatusOK {
		t.Fatalf("explain: status %d: %s", status, raw)
	}
	want := localReport(t, st.Snapshot(), testQuery, baseOptions())
	if resp.Report != want {
		t.Errorf("server report differs from one-shot CLI report\n got:\n%s\nwant:\n%s", resp.Report, want)
	}
	if resp.Cached {
		t.Error("first answer claims to be cached")
	}
	if resp.Watermark != st.Watermark() {
		t.Errorf("watermark = %d, want %d", resp.Watermark, st.Watermark())
	}

	// Re-asking is a cache hit: same bytes, no new computation.
	status, resp2, raw := postExplain(t, ts.URL+"/api/explain", ExplainRequest{Query: testQuery, Find: true})
	if status != http.StatusOK {
		t.Fatalf("repeat explain: status %d: %s", status, raw)
	}
	if !resp2.Cached {
		t.Error("repeat answer not served from cache")
	}
	if resp2.Report != want {
		t.Error("cached report differs from the computed one")
	}
	if got := s.Computations(); got != 1 {
		t.Errorf("computations = %d, want 1", got)
	}
}

func TestSingleflightHerd(t *testing.T) {
	s, ts, st := seededServer(t, Config{})
	const herd = 32
	reports := make([]string, herd)
	cached := make([]bool, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, raw := postExplain(t, ts.URL+"/api/explain", ExplainRequest{Query: testQuery, Find: true})
			if status != http.StatusOK {
				t.Errorf("herd member %d: status %d: %s", i, status, raw)
				return
			}
			reports[i], cached[i] = resp.Report, resp.Cached
		}(i)
	}
	wg.Wait()

	if got := s.Computations(); got != 1 {
		t.Errorf("herd of %d identical queries ran %d computations, want exactly 1", herd, got)
	}
	want := localReport(t, st.Snapshot(), testQuery, baseOptions())
	nCached := 0
	for i, r := range reports {
		if r != want {
			t.Errorf("herd member %d: report differs from one-shot CLI report", i)
		}
		if cached[i] {
			nCached++
		}
	}
	if nCached != herd-1 {
		t.Errorf("%d herd members served from cache/flight, want %d (all but the leader)", nCached, herd-1)
	}
}

// localEvaluation explains the query for the given pair over a log and
// evaluates the explanation on it: the reference for /api/evaluate.
func localEvaluation(t *testing.T, log *perfxplain.Log, query string, pair []string, opt perfxplain.Options) (string, perfxplain.Metrics) {
	t.Helper()
	q, err := perfxplain.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	q.Bind(pair[0], pair[1])
	ex, err := perfxplain.NewExplainer(log, opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := perfxplain.Evaluate(log, q, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	return perfxplain.RenderReport(q, x), m
}

// prefixLog returns the first w fixture rows. Without forced seals the
// watermark IS the record count, so this is exactly the records
// watermark w covers.
func prefixLog(jobs *perfxplain.Log, w uint64) *perfxplain.Log {
	in := make(map[string]bool, w)
	for _, id := range jobs.IDs()[:w] {
		in[id] = true
	}
	return jobs.Filter(func(id string) bool { return in[id] })
}

// TestDistinctQueriesWhileIngesting races explainers holding different
// watermarks against a live ingest: every answer must be byte-identical
// to a one-shot run over exactly the records its watermark covers —
// never a blend of old and new rows. Run under -race this also
// exercises the storage layer's concurrency contracts end to end.
func TestDistinctQueriesWhileIngesting(t *testing.T) {
	jobs, _ := fixture(t)
	ids := jobs.IDs()
	if len(ids) < 24 {
		t.Fatalf("fixture too small: %d records", len(ids))
	}
	split := len(ids) * 2 / 3
	logA := prefixLog(jobs, uint64(split))
	rest := make(map[string]bool, len(ids)-split)
	for _, id := range ids[split:] {
		rest[id] = true
	}
	logB := jobs.Filter(func(id string) bool { return rest[id] })

	st := perfxplain.NewStore(jobs, 8)
	if err := st.Ingest(logA); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Store: st, Explain: baseOptions(), MaxConcurrent: 4})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	const queriers = 4
	type answer struct {
		seed      int64
		watermark uint64
		report    string
	}
	answers := make([]answer, queriers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := st.Ingest(logB); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(i + 1)
			status, resp, raw := postExplain(t, ts.URL+"/api/explain",
				ExplainRequest{Query: testQuery, Find: true, Seed: seed})
			if status != http.StatusOK {
				t.Errorf("querier %d: status %d: %s", i, status, raw)
				return
			}
			answers[i] = answer{seed: seed, watermark: resp.Watermark, report: resp.Report}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, a := range answers {
		if a.watermark < uint64(split) || a.watermark > uint64(len(ids)) {
			t.Fatalf("querier %d: watermark %d outside [%d, %d]", i, a.watermark, split, len(ids))
		}
		opt := baseOptions()
		opt.Seed = a.seed
		want := localReport(t, prefixLog(jobs, a.watermark), testQuery, opt)
		if a.report != want {
			t.Errorf("querier %d (seed %d, watermark %d): report differs from one-shot run over that watermark's records",
				i, a.seed, a.watermark)
		}
	}
}

// TestEvaluateWhileIngesting is the same race for /api/evaluate, whose
// answer has two halves: the explanation and its metrics over the log.
// Rows trickle in one at a time while clients evaluate, so appends land
// between a request's explanation and its evaluation walk; both halves
// must still describe exactly the records of the one watermark the
// response reports.
func TestEvaluateWhileIngesting(t *testing.T) {
	jobs, _ := fixture(t)
	ids := jobs.IDs()
	split := len(ids) / 2
	st := perfxplain.NewStore(jobs, 8)
	if err := st.Ingest(prefixLog(jobs, uint64(split))); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Store: st, Explain: baseOptions(), MaxConcurrent: 4})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	type answer struct {
		seed int64
		resp EvaluateResponse
	}
	var (
		wg   sync.WaitGroup
		got  = make(chan answer)
		done = make(chan struct{})
	)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				seed := int64(1 + c + 3*n) // distinct per request: every one is a cache miss
				status, _, raw := postExplain(t, ts.URL+"/api/evaluate",
					ExplainRequest{Query: testQuery, Find: true, Seed: seed})
				if status != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, status, raw)
					return
				}
				var resp EvaluateResponse
				if err := json.Unmarshal([]byte(raw), &resp); err != nil {
					t.Error(err)
					return
				}
				got <- answer{seed, resp}
			}
		}(c)
	}
	go func() {
		wg.Wait()
		close(got)
	}()
	// One row per answer received: every append lands while the other
	// clients are somewhere inside a request.
	var answers []answer
	for _, id := range ids[split:] {
		if err := st.Ingest(jobs.Filter(func(x string) bool { return x == id })); err != nil {
			t.Error(err)
			break
		}
		a, ok := <-got
		if !ok {
			break // every client gave up; their errors are reported
		}
		answers = append(answers, a)
	}
	close(done)
	for a := range got {
		answers = append(answers, a)
	}
	if t.Failed() {
		return
	}

	watermarks := map[uint64]bool{}
	for _, a := range answers {
		w := a.resp.Watermark
		watermarks[w] = true
		if w < uint64(split) || w > uint64(len(ids)) {
			t.Fatalf("seed %d: watermark %d outside [%d, %d]", a.seed, w, split, len(ids))
		}
		opt := baseOptions()
		opt.Seed = a.seed
		report, want := localEvaluation(t, prefixLog(jobs, w), testQuery, a.resp.Pair, opt)
		if a.resp.Report != report {
			t.Errorf("seed %d, watermark %d: report differs from a one-shot run over that watermark's records", a.seed, w)
		}
		if a.resp.Eval != want {
			t.Errorf("seed %d, watermark %d: eval = %+v, want %+v over that watermark's records", a.seed, w, a.resp.Eval, want)
		}
	}
	if len(watermarks) < 2 {
		t.Errorf("%d answers all at one watermark: the ingest never raced an evaluation", len(answers))
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts, _ := seededServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})

	// Occupy the only slot so requests must queue.
	s.adm.slots <- struct{}{}
	defer func() { <-s.adm.slots }()

	// A queued request whose deadline expires gets 504.
	status, _, raw := postExplain(t, ts.URL+"/api/explain",
		ExplainRequest{Query: testQuery, Find: true, TimeoutMS: 100})
	if status != http.StatusGatewayTimeout {
		t.Errorf("queued past deadline: status %d, want 504: %s", status, raw)
	}

	// Park one waiter to fill the queue...
	waiterDone := make(chan int, 1)
	go func() {
		st, _, _ := postExplain(t, ts.URL+"/api/explain",
			ExplainRequest{Query: testQuery, Find: true, TimeoutMS: 20000})
		waiterDone <- st
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// ...so the next arrival overflows the queue: immediate 429.
	status, _, raw = postExplain(t, ts.URL+"/api/explain",
		ExplainRequest{Query: testQuery, Find: true, Seed: 99})
	if status != http.StatusTooManyRequests {
		t.Errorf("queue overflow: status %d, want 429: %s", status, raw)
	}

	// Releasing the slot lets the parked waiter run to completion.
	<-s.adm.slots
	if st := <-waiterDone; st != http.StatusOK {
		t.Errorf("parked waiter finished with status %d, want 200", st)
	}
	s.adm.slots <- struct{}{} // restore for the deferred release
}

// TestDeadlineMidComputation pins the context plumbing through the
// engine: an expired deadline must surface from one of the pipeline's
// cancellation checkpoints and map to 504 — never a partial answer.
// The context is expired up front (the warm pipeline can outrun any
// real timer on a small log), so the first checkpoint inside the
// engine fires deterministically.
func TestDeadlineMidComputation(t *testing.T) {
	s, _, _ := seededServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	log, gen, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.explain(ctx, log, gen, &ExplainRequest{Query: testQuery, Find: true})
	if err == nil {
		t.Fatal("explain with expired deadline returned a result")
	}
	if got := httpStatus(err); got != http.StatusGatewayTimeout {
		t.Errorf("expired deadline: %v maps to %d, want 504", err, got)
	}
	if got := s.Computations(); got != 1 {
		t.Errorf("computations = %d, want 1 (the engine was entered, then cancelled)", got)
	}

	// Errors are not cached: the same query succeeds afterwards.
	res, shared, err := s.explain(context.Background(), log, gen, &ExplainRequest{Query: testQuery, Find: true})
	if err != nil {
		t.Fatalf("explain after cancelled run: %v", err)
	}
	if shared {
		t.Error("answer after a cancelled run claims to be cached")
	}
	if res.resp.Report == "" {
		t.Error("empty report after cancelled run")
	}
}

func TestCacheInvalidationOnIngest(t *testing.T) {
	jobs, _ := fixture(t)
	s, ts, _ := seededServer(t, Config{})

	for i := 0; i < 2; i++ {
		status, _, raw := postExplain(t, ts.URL+"/api/explain", ExplainRequest{Query: testQuery, Find: true})
		if status != http.StatusOK {
			t.Fatalf("explain %d: status %d: %s", i, status, raw)
		}
	}
	if got := s.Computations(); got != 1 {
		t.Fatalf("computations after repeat = %d, want 1", got)
	}

	// Appending advances the watermark; the same query must recompute.
	one := jobs.Filter(func(id string) bool { return id == jobs.IDs()[0] })
	var buf bytes.Buffer
	if err := one.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/ingest", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	status, r3, raw := postExplain(t, ts.URL+"/api/explain", ExplainRequest{Query: testQuery, Find: true})
	if status != http.StatusOK {
		t.Fatalf("explain after ingest: status %d: %s", status, raw)
	}
	if r3.Cached {
		t.Error("post-ingest answer served from cache despite watermark advance")
	}
	if got := s.Computations(); got != 2 {
		t.Errorf("computations after ingest = %d, want 2", got)
	}
}

// TestIngestSchemaMismatch pins the two 400 bodies of a refused ingest,
// against a preloaded store and against the store a first ingest into
// an empty server created, and that a refused batch appends nothing.
func TestIngestSchemaMismatch(t *testing.T) {
	jobs, csv := fixture(t)
	post := func(url string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(url+"/api/ingest", "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	first := jobs.Fields()[0]
	renamed := bytes.Replace(csv, []byte(first.Name+":"+first.Kind), []byte("renamed:"+first.Kind), 1)
	narrow := []byte("id:id,secs:numeric\nr1,1\n")
	wantField := fmt.Sprintf("{\n  \"error\": \"schema mismatch at field 0: store %s(%s), ingest renamed(%s)\"\n}\n",
		first.Name, first.Kind, first.Kind)
	wantWidth := fmt.Sprintf("{\n  \"error\": \"schema mismatch: store has %d fields, ingest has 1\"\n}\n", len(jobs.Fields()))

	_, seeded, _ := seededServer(t, Config{})
	empty := httptest.NewServer(NewServer(Config{}))
	defer empty.Close()
	if status, body := post(empty.URL, csv); status != http.StatusOK {
		t.Fatalf("first ingest into an empty server: status %d: %s", status, body)
	}
	for name, url := range map[string]string{"preloaded": seeded.URL, "first-ingest": empty.URL} {
		if status, body := post(url, renamed); status != http.StatusBadRequest || body != wantField {
			t.Errorf("%s, renamed field: status %d body %q, want 400 %q", name, status, body, wantField)
		}
		if status, body := post(url, narrow); status != http.StatusBadRequest || body != wantWidth {
			t.Errorf("%s, narrow log: status %d body %q, want 400 %q", name, status, body, wantWidth)
		}
		var schema SchemaResponse
		getJSON(t, url+"/api/schema", &schema)
		if schema.Records != jobs.Len() || len(schema.Fields) != len(jobs.Fields()) || schema.Fields[0] != first {
			t.Errorf("%s: after refused ingests the schema reads %d records, first field %+v", name, schema.Records, schema.Fields[0])
		}
	}
}

// repeated reads a block n times over.
type repeated struct {
	block []byte
	n     int
	off   int
}

func (r *repeated) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := copy(p, r.block[r.off:])
	if r.off += k; r.off == len(r.block) {
		r.off, r.n = 0, r.n-1
	}
	return k, nil
}

// TestIngestBodyLimit: a body past maxIngestBytes answers 413 and
// appends nothing — the decoder's blocks die with the failed read — and
// the same rows cut to fit are taken.
func TestIngestBodyLimit(t *testing.T) {
	s, _, st := seededServer(t, Config{})
	records, watermark := st.Len(), st.Watermark()
	header := "id:id,note:nominal\n"
	row := []byte("r," + strings.Repeat("x", 1<<16) + "\n")
	post := func(rows int) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/api/ingest", io.MultiReader(strings.NewReader(header), &repeated{block: row, n: rows}))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(maxIngestBytes/len(row) + 1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a %d MB body: status %d (%s), want 413", maxIngestBytes>>20+1, rec.Code, rec.Body)
	}
	// Under the limit the body is read whole, and refused for what it is.
	if rec := post(8); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "schema mismatch") {
		t.Errorf("a body under the limit: status %d (%s), want the 400 of a foreign schema", rec.Code, rec.Body)
	}
	if st.Len() != records || st.Watermark() != watermark {
		t.Errorf("refused bodies left %d records at watermark %d, want %d at %d", st.Len(), st.Watermark(), records, watermark)
	}
}

// TestQueryBodyLimit: a query body past maxQueryBytes answers 413 on both
// query endpoints, and one just under it is decoded and judged as JSON.
func TestQueryBodyLimit(t *testing.T) {
	s, _, _ := seededServer(t, Config{})
	post := func(path string, pad int) *httptest.ResponseRecorder {
		body := `{"query":"` + strings.Repeat(" ", pad) + `"}`
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	for _, path := range []string{"/api/explain", "/api/evaluate"} {
		if rec := post(path, maxQueryBytes); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, a body over %d bytes: status %d (%s), want 413", path, maxQueryBytes, rec.Code, rec.Body)
		}
		if rec := post(path, maxQueryBytes-64); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "empty query") {
			t.Errorf("%s, a body under the limit: status %d (%s), want the 400 of an empty query", path, rec.Code, rec.Body)
		}
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts, st := seededServer(t, Config{})
	status, resp, raw := postExplain(t, ts.URL+"/api/evaluate", ExplainRequest{Query: testQuery, Find: true})
	if status != http.StatusOK {
		t.Fatalf("evaluate: status %d: %s", status, raw)
	}
	var full EvaluateResponse
	if err := json.Unmarshal([]byte(raw), &full); err != nil {
		t.Fatal(err)
	}

	// Local reference: same explanation, same evaluation walk.
	report, want := localEvaluation(t, st.Snapshot(), testQuery, resp.Pair, baseOptions())
	if full.Eval != want {
		t.Errorf("evaluate metrics = %+v, want %+v", full.Eval, want)
	}
	if full.Report != report {
		t.Error("evaluate's embedded report differs from the one-shot rendering")
	}
}

func TestIntrospection(t *testing.T) {
	_, ts, st := seededServer(t, Config{})
	log := st.Snapshot()

	var schema SchemaResponse
	getJSON(t, ts.URL+"/api/schema", &schema)
	wantFields := log.Fields()
	if len(schema.Fields) != len(wantFields) {
		t.Fatalf("schema has %d fields, want %d", len(schema.Fields), len(wantFields))
	}
	for i := range wantFields {
		if schema.Fields[i] != wantFields[i] {
			t.Errorf("schema field %d = %+v, want %+v", i, schema.Fields[i], wantFields[i])
		}
	}
	if schema.Records != log.Len() {
		t.Errorf("schema records = %d, want %d", schema.Records, log.Len())
	}

	var nominal, numeric string
	for _, f := range wantFields {
		if f.Kind == "nominal" && nominal == "" {
			nominal = f.Name
		}
		if f.Kind == "numeric" && numeric == "" {
			numeric = f.Name
		}
	}
	if nominal == "" || numeric == "" {
		t.Fatal("fixture schema lacks a nominal or numeric field")
	}

	var dom DomainResponse
	getJSON(t, ts.URL+"/api/domains?field="+nominal, &dom)
	if want := log.Domain(nominal); !equalStrings(dom.Values, want) {
		t.Errorf("domain(%s) = %v, want %v", nominal, dom.Values, want)
	}
	var rng DomainResponse
	getJSON(t, ts.URL+"/api/domains?field="+numeric, &rng)
	lo, hi, ok := log.NumericRange(numeric)
	if !ok || rng.Min == nil || rng.Max == nil || *rng.Min != lo || *rng.Max != hi {
		t.Errorf("range(%s) = [%v, %v], want [%v, %v] (ok=%v)", numeric, rng.Min, rng.Max, lo, hi, ok)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/api/stats", &stats)
	if stats.Records != log.Len() || stats.Watermark != st.Watermark() {
		t.Errorf("stats = %d records @ %d, want %d @ %d", stats.Records, stats.Watermark, log.Len(), st.Watermark())
	}

	resp, err := http.Get(ts.URL + "/api/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

func TestClientErrors(t *testing.T) {
	jobs, _ := fixture(t)
	_, ts, _ := seededServer(t, Config{})

	cases := []struct {
		name string
		req  ExplainRequest
	}{
		{"empty query", ExplainRequest{}},
		{"parse error", ExplainRequest{Query: "OBSERVED !!!"}},
		{"no pair no find", ExplainRequest{Query: testQuery}},
		{"half pair", ExplainRequest{Query: testQuery, Pair: []string{"job-0001"}}},
		{"level past 3", ExplainRequest{Query: testQuery, Find: true, Level: 4}},
		{"negative level", ExplainRequest{Query: testQuery, Find: true, Level: -1}},
	}
	for _, c := range cases {
		if status, _, raw := postExplain(t, ts.URL+"/api/explain", c.req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, status, raw)
		}
	}

	// A field the API no longer has is refused by name on both query
	// endpoints — never answered as if it had not been sent.
	for field, value := range map[string]string{"sample_mode": `"stratified"`, "sample_budget": "600", "sample_pilot": "0.25"} {
		for _, endpoint := range []string{"/api/explain", "/api/evaluate"} {
			body := fmt.Sprintf(`{"query": %q, "find": true, %q: %s}`, testQuery, field, value)
			resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), field) {
				t.Errorf("%s with %s: status %d, body %s; want a 400 naming the field", endpoint, field, resp.StatusCode, raw)
			}
		}
	}

	// Empty server: any explain is a 400 until a log is ingested.
	empty := httptest.NewServer(NewServer(Config{}))
	defer empty.Close()
	if status, _, _ := postExplain(t, empty.URL+"/api/explain", ExplainRequest{Query: testQuery, Find: true}); status != http.StatusBadRequest {
		t.Errorf("empty server explain: status %d, want 400", status)
	}

	// Ingesting a log with a different schema is rejected.
	_, tasks, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tasks.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/ingest", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("schema-mismatch ingest: status %d, want 400", resp.StatusCode)
	}
	_ = jobs
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	if err := json.Unmarshal(buf.Bytes(), into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
