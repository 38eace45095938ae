package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// syntheticLog builds a log where duration is fully determined by the
// numeric feature x (duration = x) and `site` is an irrelevant nominal.
// Pairs therefore satisfy duration_compare = GT exactly when
// x_compare = GT, so a correct explainer must discover x.
func syntheticLog(n int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "x", Kind: joblog.Numeric},
		{Name: "site", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	sites := []string{"us-east", "us-west", "eu"}
	for i := 0; i < n; i++ {
		x := 10 + rng.Float64()*1000
		log.MustAppend(&joblog.Record{
			ID: id(i),
			Values: []joblog.Value{
				joblog.Num(x),
				joblog.Str(sites[rng.Intn(len(sites))]),
				joblog.Num(x), // duration == x
			},
		})
	}
	return log
}

func id(i int) string { return "job-" + string(rune('A'+i/26)) + string(rune('a'+i%26)) }

// records boxes the log's rows, so helpers can walk them pairwise
// whichever form the log has; a log of records yields its own.
func records(l *joblog.Log) []*joblog.Record {
	recs := make([]*joblog.Record, l.Len())
	for i := range recs {
		recs[i] = l.Record(i)
	}
	return recs
}

// gtQuery asks: why was J1 slower than J2, expecting similar durations.
func gtQuery(log *joblog.Log, d *features.Deriver) *pxql.Query {
	q := &pxql.Query{
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	// Find a pair of interest satisfying obs.
	recs := records(log)
	for _, a := range recs {
		for _, b := range recs {
			if a == b {
				continue
			}
			if q.Observed.EvalPair(d, a, b) {
				q.ID1, q.ID2 = a.ID, b.ID
				return q
			}
		}
	}
	return nil
}

func TestExplainFindsTheTrueCause(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	log := syntheticLog(60, rng)
	ex, err := NewExplainer(log, Config{Width: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := gtQuery(log, ex.d)
	if q == nil {
		t.Fatal("no pair of interest found")
	}
	x, err := ex.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Because) != 1 {
		t.Fatalf("because = %v", x.Because)
	}
	if got := x.Because[0].Feature; got != "x_compare" && got != "x_issame" && got != "x" {
		t.Errorf("explanation uses %q, want an x-derived feature\nfull: %s", got, x.Because)
	}
	if x.TrainPrecision < 0.9 {
		t.Errorf("train precision = %v", x.TrainPrecision)
	}
	// The target's own derived features must never appear.
	for _, a := range x.Because {
		if strings.HasPrefix(a.Feature, "duration") {
			t.Errorf("explanation leaks the target: %v", a)
		}
	}
}

func TestExplanationIsApplicable(t *testing.T) {
	// Property: for many random logs and pairs of interest, every
	// generated clause holds on the pair of interest (Definition 3).
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := syntheticLog(40, rng)
		ex, err := NewExplainer(log, Config{Width: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q := gtQuery(log, ex.d)
		if q == nil {
			continue
		}
		x, err := ex.ExplainWithDespite(context.Background(), q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, b := log.Find(q.ID1), log.Find(q.ID2)
		if !x.Because.EvalPair(ex.d, a, b) {
			t.Errorf("seed %d: because clause %v not applicable to pair of interest", seed, x.Because)
		}
		if !x.Despite.EvalPair(ex.d, a, b) {
			t.Errorf("seed %d: despite clause %v not applicable to pair of interest", seed, x.Despite)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	log := syntheticLog(20, rng)
	ex, err := NewExplainer(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := ex.d
	q := gtQuery(log, d)

	// Unknown record IDs.
	bad := *q
	bad.ID1 = "ghost"
	if _, err := ex.Explain(context.Background(), &bad); err == nil {
		t.Error("unknown ID1 should error")
	}
	bad = *q
	bad.ID2 = "ghost"
	if _, err := ex.Explain(context.Background(), &bad); err == nil {
		t.Error("unknown ID2 should error")
	}

	// No pair of interest at all.
	bad = *q
	bad.ID1, bad.ID2 = "", ""
	if _, err := ex.Explain(context.Background(), &bad); err == nil {
		t.Error("unbound query should error")
	}

	// Observed must hold on the pair: flip obs and exp.
	bad = *q
	bad.Observed, bad.Expected = q.Expected, q.Observed
	if _, err := ex.Explain(context.Background(), &bad); err == nil {
		t.Error("query whose observed clause fails on the pair should error")
	}

	// Despite must hold on the pair.
	bad = *q
	bad.Despite = pxql.Predicate{{Feature: "site_issame", Op: pxql.OpEq, Value: joblog.Str("T")}}
	a, b := log.Find(q.ID1), log.Find(q.ID2)
	if !bad.Despite.EvalPair(d, a, b) {
		if _, err := ex.Explain(context.Background(), &bad); err == nil {
			t.Error("failing despite clause should error")
		}
	}

	// Unknown feature in a clause.
	bad = *q
	bad.Observed = pxql.Predicate{{Feature: "nope", Op: pxql.OpEq, Value: joblog.Str("GT")}}
	if _, err := ex.Explain(context.Background(), &bad); err == nil {
		t.Error("unknown feature should error")
	}
}

func TestNewExplainerValidation(t *testing.T) {
	if _, err := NewExplainer(nil, Config{}); err == nil {
		t.Error("nil log should error")
	}
	schema := joblog.NewSchema([]joblog.Field{{Name: "x", Kind: joblog.Numeric}})
	log := joblog.NewLog(schema)
	log.MustAppend(&joblog.Record{ID: "a", Values: []joblog.Value{joblog.Num(1)}})
	if _, err := NewExplainer(log, Config{}); err == nil {
		t.Error("log without a duration target should error")
	}
}

func TestBlockingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	log := syntheticLog(30, rng)
	d := features.NewDeriver(log.Schema, features.Level3)
	q := &pxql.Query{
		Despite:  pxql.Predicate{{Feature: "site_issame", Op: pxql.OpEq, Value: joblog.Str("T")}},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	blocked := enumLocal(t, log, q, q.Despite, 0, 1, serialExec)

	// Brute force for comparison.
	type key struct{ a, b string }
	brute := make(map[key]bool)
	for _, a := range log.Records {
		for _, b := range log.Records {
			if a == b || !q.Despite.EvalPair(d, a, b) {
				continue
			}
			obs := q.Observed.EvalPair(d, a, b)
			exp := q.Expected.EvalPair(d, a, b)
			if obs || exp {
				brute[key{a.ID, b.ID}] = obs
			}
		}
	}
	if blocked.len() != len(brute) {
		t.Fatalf("blocked found %d pairs, brute force %d", blocked.len(), len(brute))
	}
	for i, ref := range blocked.refs() {
		k := key{log.Records[ref.a].ID, log.Records[ref.b].ID}
		label, ok := brute[k]
		if !ok {
			t.Fatalf("blocked pair %v not in brute force set", k)
		}
		if label != blocked.labels[i] {
			t.Fatalf("pair %v label mismatch", k)
		}
	}
}

func TestBalancedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	flat := &pairPlanes{}
	// 10000 observed, 100 expected: wildly unbalanced.
	for i := 0; i < 10000; i++ {
		flat.add(0, 1, true)
	}
	for i := 0; i < 100; i++ {
		flat.add(0, 1, false)
	}
	ps := chunked(t, flat, 2)
	s := balancedSample(ps, 2000, rng)
	obs, exp := s.counts()
	// Expect ≈1000 observed and all 100 expected.
	if obs < 800 || obs > 1200 {
		t.Errorf("balanced observed = %d, want ~1000", obs)
	}
	if exp < 90 {
		t.Errorf("balanced expected = %d, want ~100 (all kept)", exp)
	}
	// Small sets pass through untouched.
	small := chunked(t, &pairPlanes{a: []int{0}, b: []int{1}, labels: []bool{true}}, 2)
	if got := balancedSample(small, 2000, rng); got.len() != 1 {
		t.Error("small set should not be sampled")
	}
	// Uniform sampling keeps class proportions instead.
	u := uniformSample(ps, 2000, rng)
	uObs, uExp := u.counts()
	if uExp > uObs/10 {
		t.Errorf("uniform sample unexpectedly balanced: %d obs, %d exp", uObs, uExp)
	}
}

func TestEvaluateExplanationKnownPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	log := syntheticLog(50, rng)
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)
	// Hand-built perfect explanation: x GT implies duration GT.
	x := &Explanation{
		Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
	}
	m, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 0, 1, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision != 1.0 {
		t.Errorf("precision of the true cause = %v, want 1.0", m.Precision)
	}
	if m.Generality <= 0 || m.Generality >= 1 {
		t.Errorf("generality = %v", m.Generality)
	}
	if m.ContextPairs != 50*49 {
		t.Errorf("context pairs = %d, want %d", m.ContextPairs, 50*49)
	}

	// An anti-explanation has zero precision.
	anti := &Explanation{
		Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("LT")}},
	}
	m, err = EvaluateExplanation(context.Background(), log, features.Level3, q, anti, 0, 1, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision != 0 {
		t.Errorf("anti-explanation precision = %v, want 0", m.Precision)
	}
}

func TestEvaluateExplanationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	log := syntheticLog(10, rng)
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)
	x := &Explanation{Because: pxql.Predicate{{Feature: "nope", Op: pxql.OpEq, Value: joblog.Str("GT")}}}
	if _, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 0, 1, Exec{}); err == nil {
		t.Error("unknown feature should error")
	}
	if _, err := EvaluateExplanation(context.Background(), joblog.NewLog(log.Schema), features.Level3, q, &Explanation{}, 0, 1, Exec{}); err == nil {
		t.Error("empty log should error")
	}
}

// twoFactorLog builds a log where duration = x · (1 + load): pairs with
// equal x and similar load have similar durations; pairs with equal x but
// different load diverge. Expected behaviour (duration SIM) is rare over
// all pairs but common once x_issame = T is imposed — the structure that
// makes despite generation useful.
func twoFactorLog(n int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "x", Kind: joblog.Numeric},
		{Name: "load", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	xs := []float64{100, 200, 400, 800}
	for i := 0; i < n; i++ {
		x := xs[rng.Intn(len(xs))]
		load := rng.Float64() * 0.5
		log.MustAppend(&joblog.Record{
			ID: id(i),
			Values: []joblog.Value{
				joblog.Num(x), joblog.Num(load), joblog.Num(x * (1 + load)),
			},
		})
	}
	return log
}

func TestGeneratedDespiteImprovesRelevance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	log := twoFactorLog(80, rng)
	ex, err := NewExplainer(log, Config{Width: 2, DespiteWidth: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := ex.d
	// Pair of interest: equal x, very different load → duration GT while
	// x_issame = T remains applicable.
	q := &pxql.Query{
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	found := false
	for _, a := range log.Records {
		for _, b := range log.Records {
			if a == b {
				continue
			}
			sameX, _ := d.ValueByName(a, b, "x_issame")
			if sameX == features.ValT && q.Observed.EvalPair(d, a, b) {
				q.ID1, q.ID2 = a.ID, b.ID
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no suitable pair of interest")
	}
	des, err := ex.GenerateDespite(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) == 0 {
		t.Fatal("no despite generated")
	}
	before, err := EvaluateExplanation(context.Background(), log, features.Level3, q, &Explanation{}, 0, 1, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := EvaluateExplanation(context.Background(), log, features.Level3, q, &Explanation{Despite: des}, 0, 1, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Relevance <= before.Relevance {
		t.Errorf("despite did not improve relevance: %v -> %v (clause %v)",
			before.Relevance, after.Relevance, des)
	}
}

func TestWidthControlsClauseLength(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	log := syntheticLog(60, rng)
	for _, w := range []int{1, 2, 3} {
		ex, err := NewExplainer(log, Config{Width: w, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		q := gtQuery(log, ex.d)
		x, err := ex.Explain(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(x.Because) > w {
			t.Errorf("width %d produced %d atoms", w, len(x.Because))
		}
	}
}

func TestExplainDeterministic(t *testing.T) {
	mk := func() string {
		rng := rand.New(rand.NewSource(23))
		log := syntheticLog(50, rng)
		ex, err := NewExplainer(log, Config{Width: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		q := gtQuery(log, ex.d)
		x, err := ex.Explain(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return x.Because.String()
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("explanations differ across identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestExplanationString(t *testing.T) {
	x := &Explanation{
		Despite: pxql.Predicate{{Feature: "a_issame", Op: pxql.OpEq, Value: joblog.Str("T")}},
		Because: pxql.Predicate{{Feature: "b_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
	}
	s := x.String()
	if !strings.Contains(s, "DESPITE a_issame = T") || !strings.Contains(s, "BECAUSE b_compare = GT") {
		t.Errorf("String = %q", s)
	}
}
