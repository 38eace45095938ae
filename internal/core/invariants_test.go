package core

import (
	"context"
	"math/rand"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// Greedy construction must be prefix-stable: the width-w explanation is
// exactly the first w atoms of any wider run with the same seed. The
// evaluation harness relies on this to evaluate prefixes instead of
// re-running the generator per width.
func TestPrefixStability(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	log := twoFactorLog(70, rng)
	q := gtQuery(log, features.NewDeriver(log.Schema, features.Level3))
	if q == nil {
		t.Fatal("no pair")
	}
	var clauses []pxql.Predicate
	for _, w := range []int{1, 2, 3, 4} {
		ex, err := NewExplainer(log, Config{Width: w, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		x, err := ex.Explain(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		clauses = append(clauses, x.Because)
	}
	for i := 1; i < len(clauses); i++ {
		shorter, longer := clauses[i-1], clauses[i]
		n := len(shorter)
		if len(longer) < n {
			n = len(longer)
		}
		for j := 0; j < n; j++ {
			if shorter[j].String() != longer[j].String() {
				t.Fatalf("width %d clause %v is not a prefix of width %d clause %v",
					i, shorter, i+1, longer)
			}
		}
	}
}

// The base-feature equality prefilter in candidateRecords must never
// change the related-pair set — it is a pure optimisation.
func TestBaseFeaturePrefilterSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	log := syntheticLog(40, rng)
	d := features.NewDeriver(log.Schema, features.Level3)
	// Despite with a base-feature equality: both records must be at the
	// shared site "us-east".
	q := &pxql.Query{
		Despite: pxql.Predicate{
			{Feature: "site", Op: pxql.OpEq, Value: joblog.Str("us-east")},
		},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
	fast := enumLocal(t, log, q, q.Despite, 0, 1, serialExec)

	// Brute force without any prefiltering.
	type key struct{ a, b string }
	brute := make(map[key]bool)
	for _, a := range log.Records {
		for _, b := range log.Records {
			if a == b || !q.Despite.EvalPair(d, a, b) {
				continue
			}
			if q.Observed.EvalPair(d, a, b) || q.Expected.EvalPair(d, a, b) {
				brute[key{a.ID, b.ID}] = true
			}
		}
	}
	if fast.len() != len(brute) {
		t.Fatalf("prefiltered enumeration found %d pairs, brute force %d", fast.len(), len(brute))
	}
	for _, ref := range fast.refs() {
		k := key{log.Records[ref.a].ID, log.Records[ref.b].ID}
		if !brute[k] {
			t.Fatalf("pair %v not in brute-force set", k)
		}
	}
}

// MaxPairs subsampling must keep labels consistent and respect the cap
// approximately.
func TestMaxPairsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	log := syntheticLog(60, rng) // ~3500 ordered pairs
	d := features.NewDeriver(log.Schema, features.Level3)
	q := gtQuery(log, d)
	full := enumLocal(t, log, q, nil, 0, 1, serialExec)
	checkRelated(t, "full", log, q, nil, full, true)
	capped := enumLocal(t, log, q, nil, 500, 1, serialExec)
	checkRelated(t, "capped", log, q, nil, capped, false)
	if capped.len() >= full.len() {
		t.Fatalf("cap had no effect: %d vs %d", capped.len(), full.len())
	}
	// Loose bound: expectation is <= 500 related pairs (cap applies to the
	// candidate space, so the related subset is smaller still).
	if capped.len() > 1000 {
		t.Errorf("capped enumeration kept %d pairs", capped.len())
	}
	// Labels of sampled pairs must agree with a direct evaluation.
	for i, ref := range capped.refs() {
		a, b := log.Records[ref.a], log.Records[ref.b]
		obs := q.Observed.EvalPair(d, a, b)
		if capped.labels[i] != obs {
			t.Fatalf("sampled pair %s|%s mislabeled", a.ID, b.ID)
		}
	}
}

// RawScores and DiverseSample paths must still produce applicable,
// validated clauses.
func TestConfigVariantsProduceValidClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	log := syntheticLog(50, rng)
	for name, cfg := range map[string]Config{
		"raw scores": {Width: 2, Seed: 3, RawScores: true},
		"diverse":    {Width: 2, Seed: 3, DiverseSample: true},
		"unbalanced": {Width: 2, Seed: 3, UnbalancedSample: true},
		"level2":     {Width: 2, Seed: 3, Level: features.Level2},
		"level1":     {Width: 2, Seed: 3, Level: features.Level1},
	} {
		ex, err := NewExplainer(log, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q := gtQuery(log, ex.d)
		x, err := ex.Explain(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := x.Because.Validate(ex.d.Schema()); err != nil {
			t.Errorf("%s: invalid clause: %v", name, err)
		}
		a, b := log.Find(q.ID1), log.Find(q.ID2)
		if len(x.Because) > 0 && !x.Because.EvalPair(ex.d, a, b) {
			t.Errorf("%s: clause %v not applicable", name, x.Because)
		}
		// Level restrictions must hold on the emitted features.
		for _, atom := range x.Because {
			_, kind := features.ParseName(atom.Feature)
			if cfg.Level == features.Level1 && kind != features.IsSame {
				t.Errorf("%s: level-1 clause uses %v", name, atom)
			}
			if cfg.Level == features.Level2 && kind == features.Base {
				t.Errorf("%s: level-2 clause uses base feature %v", name, atom)
			}
		}
	}
}

// Explanations never mention the target's derived features, across many
// random logs (the non-circularity invariant).
func TestTargetExclusionProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		log := twoFactorLog(50, rng)
		ex, err := NewExplainer(log, Config{Width: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q := gtQuery(log, ex.d)
		if q == nil {
			continue
		}
		x, err := ex.ExplainWithDespite(context.Background(), q)
		if err != nil {
			continue
		}
		for _, clause := range []pxql.Predicate{x.Because, x.Despite} {
			for _, atom := range clause {
				raw, _ := features.ParseName(atom.Feature)
				if raw == "duration" {
					t.Errorf("seed %d: target leaked into %v", seed, clause)
				}
			}
		}
	}
}

// Atom diagnostics must be monotone in length (each added predicate
// narrows the satisfied set) and end at the clause-level numbers.
func TestAtomStats(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	log := twoFactorLog(70, rng)
	ex, err := NewExplainer(log, Config{Width: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := gtQuery(log, ex.d)
	x, err := ex.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Atoms) != len(x.Because) {
		t.Fatalf("atom stats %d for clause of %d", len(x.Atoms), len(x.Because))
	}
	for i, st := range x.Atoms {
		if st.Precision < 0 || st.Precision > 1 || st.Generality < 0 || st.Generality > 1 {
			t.Errorf("atom %d stats out of range: %+v", i, st)
		}
		if i > 0 && st.Generality > x.Atoms[i-1].Generality+1e-12 {
			t.Errorf("generality grew when narrowing: %v -> %v",
				x.Atoms[i-1].Generality, st.Generality)
		}
	}
	last := x.Atoms[len(x.Atoms)-1]
	if last.Precision != x.TrainPrecision || last.Generality != x.TrainGenerality {
		t.Error("clause-level numbers disagree with last prefix")
	}
}
