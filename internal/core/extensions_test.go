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

func TestDespiteToThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	log := twoFactorLog(80, rng)
	ex, err := NewExplainer(log, Config{DespiteWidth: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := ex.d
	q := &pxql.Query{
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	for _, a := range log.Records {
		for _, b := range log.Records {
			if a == b {
				continue
			}
			sameX, _ := d.ValueByName(a, b, "x_issame")
			if sameX == features.ValT && q.Observed.EvalPair(d, a, b) {
				q.ID1, q.ID2 = a.ID, b.ID
			}
		}
	}
	if q.ID1 == "" {
		t.Fatal("no pair")
	}

	// A trivially low threshold is met by the empty clause.
	des, rel, met, err := ex.DespiteToThreshold(context.Background(), q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !met || len(des) != 0 {
		t.Errorf("trivial threshold: des=%v met=%v rel=%v", des, met, rel)
	}

	// A moderate threshold forces at least one atom.
	des, rel, met, err = ex.DespiteToThreshold(context.Background(), q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !met {
		t.Fatalf("threshold 0.3 not met (achieved %v with %v)", rel, des)
	}
	if len(des) == 0 {
		t.Error("threshold 0.3 should need a non-empty clause")
	}
	if rel < 0.3 {
		t.Errorf("achieved relevance %v below threshold", rel)
	}

	// An impossible threshold returns best effort, not an error.
	des, rel, met, err = ex.DespiteToThreshold(context.Background(), q, 0.999999)
	if err != nil {
		t.Fatal(err)
	}
	if met {
		t.Errorf("implausible threshold reported met (rel=%v, des=%v)", rel, des)
	}
	if len(des) == 0 {
		t.Error("best-effort clause should be returned")
	}

	// Bounds checking.
	if _, _, _, err := ex.DespiteToThreshold(context.Background(), q, 1.5); err == nil {
		t.Error("out-of-range threshold should error")
	}
}

func TestTargetQuery(t *testing.T) {
	q, err := TargetQuery("hdfs_bytes_written", "GT", "SIM")
	if err != nil {
		t.Fatal(err)
	}
	if q.Observed[0].Feature != "hdfs_bytes_written_compare" {
		t.Errorf("observed = %v", q.Observed)
	}
	if q.Expected[0].Value != joblog.Str("SIM") {
		t.Errorf("expected = %v", q.Expected)
	}
	if _, err := TargetQuery("x", "HUGE", "SIM"); err == nil {
		t.Error("bad code should error")
	}
	if _, err := TargetQuery("x", "GT", "GT"); err == nil {
		t.Error("identical codes should error")
	}
}

// Explaining a non-duration target end to end: build a log where the
// bytes written are driven by a knob, and ask why one execution wrote
// more.
func TestAlternativeTargetMetric(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "knob", Kind: joblog.Numeric},
		{Name: "noise", Kind: joblog.Numeric},
		{Name: "hdfs_bytes_written", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		knob := 1 + rng.Float64()*10
		log.MustAppend(&joblog.Record{ID: id(i), Values: []joblog.Value{
			joblog.Num(knob),
			joblog.Num(rng.Float64()),
			joblog.Num(knob * 1000),
			joblog.Num(rng.Float64() * 100),
		}})
	}
	q, err := TargetQuery("hdfs_bytes_written", "GT", "SIM")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExplainer(log, Config{Width: 1, Seed: 11, Target: "hdfs_bytes_written"})
	if err != nil {
		t.Fatal(err)
	}
	d := ex.d
	for _, a := range log.Records {
		for _, b := range log.Records {
			if a != b && q.Observed.EvalPair(d, a, b) {
				q.ID1, q.ID2 = a.ID, b.ID
			}
		}
	}
	x, err := ex.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Because) == 0 || !strings.HasPrefix(x.Because[0].Feature, "knob") {
		t.Errorf("explanation %v should use the knob", x.Because)
	}
	// The target's derived features must not leak into the clause.
	for _, a := range x.Because {
		if strings.HasPrefix(a.Feature, "hdfs_bytes_written") {
			t.Errorf("target leaked: %v", a)
		}
	}
}
