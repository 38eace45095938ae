package perfxplain

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"perfxplain/internal/joblog"
	"perfxplain/internal/shard"
)

// Shared small logs for the public-API tests (collection is deterministic).
var (
	apiOnce  sync.Once
	apiJobs  *Log
	apiTasks *Log
	apiErr   error
)

func smallLogs(t *testing.T) (*Log, *Log) {
	t.Helper()
	apiOnce.Do(func() {
		apiJobs, apiTasks, apiErr = Collect(SweepOptions{Small: true, Seed: 42})
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiJobs, apiTasks
}

const whySlowerSrc = `
DESPITE numinstances_issame = T AND pigscript_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`

func boundWhySlower(t *testing.T, jobs *Log) *Query {
	t.Helper()
	q, err := ParseQuery(whySlowerSrc)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := FindPairOfInterest(jobs, q, 1)
	if !ok {
		t.Fatal("no pair of interest in small log")
	}
	q.Bind(id1, id2)
	return q
}

func TestCollectSmall(t *testing.T) {
	jobs, tasks := smallLogs(t)
	if jobs.Len() != 32 {
		t.Errorf("jobs = %d", jobs.Len())
	}
	if tasks.Len() == 0 {
		t.Error("no tasks")
	}
	ids := jobs.IDs()
	if len(ids) != jobs.Len() || ids[0] != "job-0000" {
		t.Errorf("IDs = %v...", ids[:3])
	}
	names := jobs.FeatureNames()
	if len(names) == 0 || names[len(names)-1] != "duration" {
		t.Errorf("feature names end = %v", names[len(names)-1])
	}
	v, ok := jobs.Feature("job-0000", "pigscript")
	if !ok || !strings.HasSuffix(v, ".pig") {
		t.Errorf("Feature = %q, %v", v, ok)
	}
	if _, ok := jobs.Feature("ghost", "pigscript"); ok {
		t.Error("unknown record should miss")
	}
	if _, ok := jobs.Feature("job-0000", "nope"); ok {
		t.Error("unknown feature should miss")
	}
}

func TestEndToEndExplain(t *testing.T) {
	jobs, _ := smallLogs(t)
	q := boundWhySlower(t, jobs)
	ex, err := NewExplainer(jobs, Options{Width: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if x.Because() == "true" || x.Because() == "" {
		t.Errorf("empty explanation: %q", x.Because())
	}
	if x.TrainPrecision() <= 0 || x.TrainPrecision() > 1 {
		t.Errorf("train precision = %v", x.TrainPrecision())
	}
	if !strings.Contains(x.String(), "BECAUSE") {
		t.Errorf("String = %q", x.String())
	}
	// Evaluate on the same log: must produce sane probabilities.
	m, err := Evaluate(jobs, q, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision < 0 || m.Precision > 1 || m.Generality <= 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestExplainQueryWithForClause(t *testing.T) {
	jobs, _ := smallLogs(t)
	q := boundWhySlower(t, jobs)
	id1, id2 := q.Pair()
	src := "FOR J1, J2 WHERE J1.JobID = '" + id1 + "' AND J2.JobID = '" + id2 + "'" + whySlowerSrc
	ex, err := NewExplainer(jobs, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.ExplainQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if x.Because() == "" {
		t.Error("no explanation")
	}
	if _, err := ex.ExplainQuery("NOT PXQL"); err == nil {
		t.Error("bad source should error")
	}
}

func TestDespiteGeneration(t *testing.T) {
	jobs, _ := smallLogs(t)
	// Under-specified query: no despite clause.
	q, err := ParseQuery("OBSERVED duration_compare = GT EXPECTED duration_compare = SIM")
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := FindPairOfInterest(jobs, q, 2)
	if !ok {
		t.Fatal("no pair")
	}
	q.Bind(id1, id2)
	ex, err := NewExplainer(jobs, Options{DespiteWidth: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	des, err := ex.GenerateDespite(q)
	if err != nil {
		t.Fatal(err)
	}
	if des == "" || des == "true" {
		t.Errorf("despite = %q", des)
	}
	x, err := ex.ExplainWithDespite(q)
	if err != nil {
		t.Fatal(err)
	}
	if x.Despite() == "true" {
		t.Error("ExplainWithDespite produced no despite clause")
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	jobs, _ := smallLogs(t)
	q := boundWhySlower(t, jobs)
	for name, fn := range map[string]func() (*Explanation, error){
		"RuleOfThumb": func() (*Explanation, error) { return RuleOfThumbExplain(jobs, q, 0, 1) },
		"SimButDiff":  func() (*Explanation, error) { return SimButDiffExplain(jobs, q, 0, 1) },
	} {
		x, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.Because() == "" {
			t.Errorf("%s: empty clause", name)
		}
		if _, err := Evaluate(jobs, q, x, Options{}); err != nil {
			t.Errorf("%s: evaluate: %v", name, err)
		}
	}
}

func TestLogCSVRoundTripPublic(t *testing.T) {
	jobs, _ := smallLogs(t)
	var buf bytes.Buffer
	if err := jobs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != jobs.Len() {
		t.Errorf("round trip %d vs %d", back.Len(), jobs.Len())
	}
	var jbuf bytes.Buffer
	if err := jobs.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	backJ, err := ReadLogJSON(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	if backJ.Len() != jobs.Len() {
		t.Errorf("json round trip %d vs %d", backJ.Len(), jobs.Len())
	}
	if _, err := ReadLogCSV(strings.NewReader("bogus")); err == nil {
		t.Error("bad CSV should error")
	}
}

// TestSweepCSVRoundTripExact: the paper's 540-job sweep survives
// WriteCSV → ReadLogCSV with every numeric's bits, every nominal, every
// missing cell and the record order intact, and writes the same bytes
// again.
func TestSweepCSVRoundTripExact(t *testing.T) {
	jobs, _, err := Collect(SweepOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jobs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	written := append([]byte(nil), buf.Bytes()...)
	back, err := ReadLogCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 540 || back.Len() != jobs.Len() || !back.l.Schema.Equal(jobs.l.Schema) {
		t.Fatalf("read back %d records over %v", back.Len(), back.FeatureNames())
	}
	for i, want := range jobs.l.Records {
		got := back.l.Record(i)
		if got.ID != want.ID {
			t.Fatalf("record %d is %q, want %q", i, got.ID, want.ID)
		}
		for f, wv := range want.Values {
			gv := got.Values[f]
			if gv.Kind != wv.Kind || gv.Str != wv.Str || math.Float64bits(gv.Num) != math.Float64bits(wv.Num) {
				t.Fatalf("record %q field %d is %#v, want %#v", want.ID, f, gv, wv)
			}
		}
	}
	var again bytes.Buffer
	if err := back.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), written) {
		t.Error("the log read back writes different bytes")
	}
}

// TestStoreIngestChecksSchemaAndCounts: a library caller's batch is held
// to the store's schema by name and kind, not only by width, and a batch
// that is taken moves the watermark by its row count.
func TestStoreIngestChecksSchemaAndCounts(t *testing.T) {
	jobs, tasks := smallLogs(t)
	st := NewStore(jobs, 7)
	if err := st.Ingest(jobs); err != nil {
		t.Fatal(err)
	}
	if st.Len() != jobs.Len() || st.Watermark() != uint64(jobs.Len()) {
		t.Fatalf("after one batch of %d: %d records at watermark %d", jobs.Len(), st.Len(), st.Watermark())
	}
	// The same width, one column of the other kind.
	var csv bytes.Buffer
	if err := jobs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	first := jobs.Fields()[0]
	other := map[string]string{"numeric": "nominal", "nominal": "numeric"}[first.Kind]
	rekinded, err := ReadLogCSV(bytes.NewReader(bytes.Replace(csv.Bytes()[:bytes.IndexByte(csv.Bytes(), '\n')+1],
		[]byte(first.Name+":"+first.Kind), []byte(first.Name+":"+other), 1)))
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*Log{"another kind": rekinded, "another relation": tasks} {
		var se *SchemaError
		if err := st.Ingest(l); !errors.As(err, &se) {
			t.Errorf("%s: Ingest error %v, want a *SchemaError", name, err)
		}
	}
	if st.Len() != jobs.Len() || st.Watermark() != uint64(jobs.Len()) {
		t.Errorf("refused batches left %d records at watermark %d", st.Len(), st.Watermark())
	}
}

func TestFilterPublic(t *testing.T) {
	jobs, _ := smallLogs(t)
	one := jobs.Filter(func(id string) bool { return id == "job-0000" })
	if one.Len() != 1 {
		t.Errorf("filtered = %d", one.Len())
	}
}

// The paper's headline comparison, asserted end to end on the full
// Table 2 log: at width 3 PerfXplain's test precision clearly exceeds
// both baselines on the WhySlower query.
func TestPaperHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	jobs, _, err := Collect(SweepOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	q := boundWhySlower(t, jobs)
	ex, err := NewExplainer(jobs, Options{Width: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	px, err := ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := RuleOfThumbExplain(jobs, q, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sbd, err := SimButDiffExplain(jobs, q, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	mPX, err := Evaluate(jobs, q, px, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mROT, err := Evaluate(jobs, q, rot, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mSBD, err := Evaluate(jobs, q, sbd, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mPX.Precision <= mROT.Precision || mPX.Precision <= mSBD.Precision {
		t.Errorf("PerfXplain %.3f should beat RuleOfThumb %.3f and SimButDiff %.3f",
			mPX.Precision, mROT.Precision, mSBD.Precision)
	}
}

// TestLocalExecutionBuildsNoSegmentViews pins the sentence on
// Log.layout for store snapshots: explaining and evaluating on the
// coordinator never asks the snapshot for its segment views — so no wire
// form is built and nothing is hashed — while a worker-backed explainer
// asks exactly once.
func TestLocalExecutionBuildsNoSegmentViews(t *testing.T) {
	jobs, _ := smallLogs(t)
	q := boundWhySlower(t, jobs)
	st := NewStore(jobs, 8)
	if err := st.Ingest(jobs); err != nil {
		t.Fatal(err)
	}
	st.Seal()
	snap := st.Snapshot()
	asked := 0
	build := snap.segs
	snap.segs = func() []joblog.SegmentView { asked++; return build() }

	ex, err := NewExplainer(snap, Options{Seed: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(snap, q, x, Options{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if asked != 0 {
		t.Fatalf("local execution asked for the segment views %d times", asked)
	}

	pool := &WorkerPool{&shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}}
	defer pool.Close()
	pooled, err := NewExplainer(snap, Options{Seed: 5, Shards: 4, SharedPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	px, err := pooled.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if asked != 1 {
		t.Errorf("worker-backed explainer asked for the segment views %d times, want 1", asked)
	}
	if RenderReport(q, px) != RenderReport(q, x) {
		t.Error("worker-backed explanation differs from the local one")
	}
}

// TestBrokenSegmentLayoutIsAnError pins that a snapshot whose segment
// views do not tile its records fails every worker-backed entry point
// instead of silently shipping some other way — and that local
// execution, which never builds a layout, is unaffected.
func TestBrokenSegmentLayoutIsAnError(t *testing.T) {
	jobs, _ := smallLogs(t)
	q := boundWhySlower(t, jobs)
	st := NewStore(jobs, 8)
	if err := st.Ingest(jobs); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	views := snap.segs()
	if len(views) < 3 {
		t.Fatalf("fixture snapshot has %d segments", len(views))
	}
	gapped := append(append([]joblog.SegmentView(nil), views[:1]...), views[2:]...)
	gap := &Log{l: snap.l, segs: func() []joblog.SegmentView { return gapped }}

	ex, err := NewExplainer(gap, Options{Seed: 5, Shards: 2})
	if err != nil {
		t.Fatalf("local explainer over a gapped snapshot: %v", err)
	}
	x, err := ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(gap, q, x, Options{}); err != nil {
		t.Errorf("local Evaluate over a gapped snapshot: %v", err)
	}

	pool := &WorkerPool{&shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}}
	defer pool.Close()
	pooled := Options{Seed: 5, Shards: 2, SharedPool: pool}
	const want = "core: segment 1 starts at"
	if _, err := NewExplainer(gap, pooled); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sharded NewExplainer over a gapped snapshot: %v", err)
	}
	if _, err := Evaluate(gap, q, x, pooled); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sharded Evaluate over a gapped snapshot: %v", err)
	}
	sharded, err := NewExplainer(snap, pooled)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if _, err := sharded.Evaluate(gap, q, x); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Explainer.Evaluate over a gapped snapshot: %v", err)
	}
	if _, err := sharded.Evaluate(snap, q, x); err != nil {
		t.Errorf("Explainer.Evaluate over the intact snapshot: %v", err)
	}
}
