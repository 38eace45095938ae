package baselines

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// testLog builds records where duration = x (x is the important feature)
// and site/noise are irrelevant.
func testLog(n int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "x", Kind: joblog.Numeric},
		{Name: "site", Kind: joblog.Nominal},
		{Name: "noise", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	sites := []string{"a", "b"}
	for i := 0; i < n; i++ {
		x := 10 + rng.Float64()*1000
		log.MustAppend(&joblog.Record{
			ID: "r" + string(rune('0'+i/100)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i%10)),
			Values: []joblog.Value{
				joblog.Num(x),
				joblog.Str(sites[rng.Intn(2)]),
				joblog.Num(rng.Float64()),
				joblog.Num(x),
			},
		})
	}
	return log
}

func gtQuery(log *joblog.Log, d *features.Deriver) *pxql.Query {
	q := &pxql.Query{
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	for _, a := range log.Records {
		for _, b := range log.Records {
			if a != b && q.Observed.EvalPair(d, a, b) {
				q.ID1, q.ID2 = a.ID, b.ID
				return q
			}
		}
	}
	return nil
}

func TestRuleOfThumbRanksAndExplains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	log := testLog(120, rng)
	rot, err := NewRuleOfThumb(log, "duration", 1)
	if err != nil {
		t.Fatal(err)
	}
	ranking := rot.Ranking()
	if len(ranking) != 3 {
		t.Fatalf("ranking = %v (target must be excluded)", ranking)
	}
	if ranking[0] != "x" {
		t.Errorf("top-ranked feature = %q, want x", ranking[0])
	}
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)
	x, err := rot.Explain(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Because) == 0 || len(x.Because) > 2 {
		t.Fatalf("because = %v", x.Because)
	}
	// All atoms must be f_issame = F for disagreeing features.
	for _, a := range x.Because {
		if !strings.HasSuffix(a.Feature, "_issame") || a.Value != features.ValF {
			t.Errorf("RuleOfThumb emitted %v, want isSame = F atoms", a)
		}
	}
	// The first atom should be about x, the truly important feature.
	if x.Because[0].Feature != "x_issame" {
		t.Errorf("first atom = %v, want x_issame = F", x.Because[0])
	}
}

func TestRuleOfThumbErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	log := testLog(50, rng)
	if _, err := NewRuleOfThumb(nil, "duration", 1); err == nil {
		t.Error("nil log should error")
	}
	if _, err := NewRuleOfThumb(log, "nope", 1); err == nil {
		t.Error("unknown target should error")
	}
	rot, err := NewRuleOfThumb(log, "duration", 1)
	if err != nil {
		t.Fatal(err)
	}
	q := &pxql.Query{ID1: "ghost", ID2: "r000",
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	if _, err := rot.Explain(q, 3); err == nil {
		t.Error("unknown pair should error")
	}
}

func TestSimButDiffExplains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	log := testLog(80, rng)
	sbd, err := NewSimButDiff(log, SimButDiffConfig{SimilarityThreshold: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)
	x, err := sbd.Explain(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Because) == 0 || len(x.Because) > 2 {
		t.Fatalf("because = %v", x.Because)
	}
	a, b := log.Find(q.ID1), log.Find(q.ID2)
	// Applicability: SimButDiff asserts the pair's own values, so the
	// clause must hold on the pair of interest.
	if !x.Because.EvalPair(d, a, b) {
		t.Errorf("clause %v not applicable to the pair of interest", x.Because)
	}
	// Only isSame features may appear.
	for _, atom := range x.Because {
		if !strings.HasSuffix(atom.Feature, "_issame") {
			t.Errorf("SimButDiff emitted non-isSame atom %v", atom)
		}
		if strings.HasPrefix(atom.Feature, "duration") {
			t.Errorf("SimButDiff leaked the target: %v", atom)
		}
	}
}

func TestSimButDiffWhatIfScoresFavourTheCause(t *testing.T) {
	// In this log duration differences are caused exactly by x: among
	// similar pairs, disagreeing on x should be what flips pairs to
	// expected, so x_issame should be the first atom.
	rng := rand.New(rand.NewSource(5))
	log := testLog(100, rng)
	sbd, err := NewSimButDiff(log, SimButDiffConfig{SimilarityThreshold: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)
	x, err := sbd.Explain(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x.Because[0].Feature != "x_issame" {
		t.Errorf("first what-if feature = %v, want x_issame", x.Because[0])
	}
}

func TestSimButDiffErrors(t *testing.T) {
	if _, err := NewSimButDiff(nil, SimButDiffConfig{}); err == nil {
		t.Error("nil log should error")
	}
	rng := rand.New(rand.NewSource(7))
	log := testLog(30, rng)
	sbd, err := NewSimButDiff(log, SimButDiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := &pxql.Query{ID1: "ghost", ID2: "r000",
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	if _, err := sbd.Explain(q, 3); err == nil {
		t.Error("unknown pair should error")
	}
}

func TestBaselinesScoreableByCoreMetrics(t *testing.T) {
	// Both baselines must produce explanations EvaluateExplanation accepts.
	rng := rand.New(rand.NewSource(9))
	log := testLog(60, rng)
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)

	rot, err := NewRuleOfThumb(log, "duration", 1)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := rot.Explain(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EvaluateExplanation(context.Background(), log, features.Level3, q, xr, 0, 1, core.Exec{}); err != nil {
		t.Errorf("RuleOfThumb explanation unscoreable: %v", err)
	}

	sbd, err := NewSimButDiff(log, SimButDiffConfig{SimilarityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := sbd.Explain(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EvaluateExplanation(context.Background(), log, features.Level3, q, xs, 0, 1, core.Exec{}); err != nil {
		t.Errorf("SimButDiff explanation unscoreable: %v", err)
	}
}
