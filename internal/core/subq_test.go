package core

// Tests for the sub-quadratic enumeration layer (blocking-group zone
// pruning, stratified sampling, top-K candidate pruning): exact mode must
// stay byte-identical with the indexes and pruner on, the stratified
// mode must be invariant under parallelism and shard count, and the
// approximate explanations must agree with the exact ones within the
// advertised Wilson confidence bounds.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// zoneSkewedLog builds a log blocked by `script` into nGroups groups of
// skewed sizes, where `cpus` is constant within each group (cpus =
// group % 10) — so a `cpus > 8.5` conjunct provably kills every group
// but the 9-cpu ones via zone maps — and duration = x.
func zoneSkewedLog(n, nGroups int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "script", Kind: joblog.Nominal},
		{Name: "cpus", Kind: joblog.Numeric},
		{Name: "x", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	for i := 0; i < n; i++ {
		// Skew group sizes harmonically: group k gets ~1/(k+1) of the mass.
		k := 0
		for r := rng.Float64() * harmonic(nGroups); r > 0; k++ {
			r -= 1 / float64(k+1)
		}
		if k > 0 {
			k--
		}
		x := 10 + rng.Float64()*1000
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("z%04d", i), Values: []joblog.Value{
			joblog.Str(fmt.Sprintf("script-%03d", k)),
			joblog.Num(float64(k % 10)),
			joblog.Num(x),
			joblog.Num(x),
		}})
	}
	return log
}

func harmonic(n int) float64 {
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	return h
}

func zoneQuery() *pxql.Query {
	return &pxql.Query{
		Despite: pxql.Predicate{
			{Feature: "script_issame", Op: pxql.OpEq, Value: features.ValT},
			{Feature: "cpus", Op: pxql.OpGt, Value: joblog.Num(8.5)},
		},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
}

// TestZonePruneExact pins the pruner's exactness contract: enumeration
// with zone-map group pruning is byte-identical to the unpruned walk —
// uncapped and Bernoulli-capped — while actually dropping groups.
func TestZonePruneExact(t *testing.T) {
	log := zoneSkewedLog(400, 40, rand.New(rand.NewSource(21)))
	q := zoneQuery()

	pruned, _ := blockedGroupsOpt(log, q.Despite, 0, true, false)
	all, _ := blockedGroupsOpt(log, q.Despite, 0, false, false)
	if len(pruned) >= len(all) {
		t.Fatalf("pruner dropped no groups (%d of %d kept); the fixture is toothless", len(pruned), len(all))
	}

	for _, maxPairs := range []int{0, 500} {
		base := enumSwitched(t, log, q, maxPairs, 77, false, false)
		checkRelated(t, fmt.Sprintf("maxPairs=%d unpruned", maxPairs), log, q, q.Despite, base, maxPairs == 0)
		got := enumLocal(t, log, q, q.Despite, false, maxPairs, 77, serialExec)
		if !samePairs(got, base) {
			t.Errorf("maxPairs=%d: pruned enumeration differs from unpruned (%d vs %d pairs)",
				maxPairs, got.len(), base.len())
		}
	}
}

// TestStratifiedInvariance pins the stratified sampler's determinism
// story: the drawn pair set — a labelled subset of the oracle's — is
// identical at every parallelism, and the union of stratified
// PlanEnumShards specs — executed independently and merged in spec
// order — equals the serial walk at shard counts 1, 2 and 7.
func TestStratifiedInvariance(t *testing.T) {
	log := zoneSkewedLog(300, 25, rand.New(rand.NewSource(23)))
	q := zoneQuery()
	const budget = 800
	seed := stats.DeriveSeed(5, "strat-test")

	base := enumLocal(t, log, q, q.Despite, true, budget, seed, serialExec)
	if base.len() == 0 {
		t.Fatal("stratified enumeration found no related pairs; fixture is toothless")
	}
	checkRelated(t, "stratified serial", log, q, q.Despite, base, false)
	for _, workers := range []int{2, 4, 7} {
		got := enumLocal(t, log, q, q.Despite, true, budget, seed, Exec{Parallelism: workers})
		if !samePairs(got, base) {
			t.Errorf("workers=%d: stratified enumeration differs from serial", workers)
		}
	}
	for _, nShards := range []int{1, 2, 7} {
		specs := PlanEnumShards(FlatLayout(log), log, features.Level3, q, q.Despite, true, budget, nShards, seed)
		if len(specs) != nShards {
			t.Fatalf("shards=%d: planned %d specs", nShards, len(specs))
		}
		refs, labels := runPlan(t, specs)
		if !reflect.DeepEqual(refs, base.refs()) || !reflect.DeepEqual(labels, base.labels) {
			t.Errorf("shards=%d: merged stratified shard output differs from serial (%d vs %d pairs)",
				nShards, len(refs), base.len())
		}
	}
}

// TestStratifiedBudgetCoverage pins what stratification is for: under a
// budget that Bernoulli thinning would spread thin, every surviving
// blocking group still contributes draws (rare strata are not starved),
// and the walked pair count respects the total budget's order of
// magnitude.
func TestStratifiedBudgetCoverage(t *testing.T) {
	log := zoneSkewedLog(400, 30, rand.New(rand.NewSource(29)))
	q := zoneQuery()
	// Unpruned groups: the allocator's contract is over whatever group
	// list it is handed, and the unpruned one has the size skew we want.
	groups, _ := blockedGroupsOpt(log, q.Despite, 0, false, false)
	space := 0
	for _, g := range groups {
		space += len(g) * (len(g) - 1)
	}
	const budget = 600
	if space <= budget {
		t.Fatalf("fixture pair space %d not above budget %d; allocation is trivial", space, budget)
	}
	budgets := stratifyBudgets(groups, budget)
	if len(budgets) != len(groups) {
		t.Fatalf("budgets/groups length mismatch: %d vs %d", len(budgets), len(groups))
	}
	total := 0
	for gi, g := range groups {
		m := len(g) * (len(g) - 1)
		b := budgets[gi]
		if m > 0 && b == 0 {
			t.Errorf("group %d (%d members) starved: budget 0", gi, len(g))
		}
		if b > m {
			t.Errorf("group %d: budget %d exceeds pair space %d", gi, b, m)
		}
		if b < m && b < stratumFloor {
			t.Errorf("group %d: partial budget %d below the stratum floor %d", gi, b, stratumFloor)
		}
		total += b
	}
	// Floors and whole-group takes can push past the nominal budget, but
	// only boundedly so.
	if total < budget/2 || total > budget+stratumFloor*len(groups) {
		t.Errorf("total allocation %d is out of band for budget %d over %d groups", total, budget, len(groups))
	}

	// A budget covering the whole space keeps every pair.
	for gi, b := range stratifyBudgets(groups, 0) {
		if m := len(groups[gi]) * (len(groups[gi]) - 1); b != m {
			t.Errorf("budget<=0: group %d allocated %d of %d", gi, b, m)
		}
	}
}

// TestGroupDraws pins the draw stream: pure in (seed, g0, n, budget),
// sorted, distinct, in range, and exactly min(budget, n·(n−1)) long.
func TestGroupDraws(t *testing.T) {
	for _, tc := range []struct{ n, budget int }{
		{10, 16}, {10, 200}, {50, 16}, {2, 1}, {2, 5}, {7, 42},
	} {
		m := tc.n * (tc.n - 1)
		want := tc.budget
		if want > m {
			want = m
		}
		ts := groupDraws(99, 1234, tc.n, tc.budget)
		if len(ts) != want {
			t.Fatalf("n=%d budget=%d: drew %d, want %d", tc.n, tc.budget, len(ts), want)
		}
		seen := make(map[uint64]bool, len(ts))
		for i, v := range ts {
			if v >= uint64(m) {
				t.Fatalf("n=%d budget=%d: draw %d out of range", tc.n, tc.budget, v)
			}
			if seen[v] {
				t.Fatalf("n=%d budget=%d: duplicate draw %d", tc.n, tc.budget, v)
			}
			seen[v] = true
			if i > 0 && ts[i-1] >= v {
				t.Fatalf("n=%d budget=%d: draws not sorted ascending", tc.n, tc.budget)
			}
		}
		again := groupDraws(99, 1234, tc.n, tc.budget)
		if !reflect.DeepEqual(ts, again) {
			t.Fatalf("n=%d budget=%d: draws not deterministic", tc.n, tc.budget)
		}
		// Seed sensitivity only applies to genuinely partial draws: a
		// budget covering the whole space keeps every pair at any seed.
		other := groupDraws(100, 1234, tc.n, tc.budget)
		if want < m && m > 4 && reflect.DeepEqual(ts, other) {
			t.Errorf("n=%d budget=%d: different seeds drew identical sets", tc.n, tc.budget)
		}
	}
	if got := groupDraws(1, 0, 5, 0); len(got) != 0 {
		t.Errorf("budget 0 drew %d pairs", len(got))
	}
}

// bindZonePair binds a pair of interest satisfying despite ∧ observed.
func bindZonePair(t *testing.T, log *joblog.Log, d *features.Deriver, q *pxql.Query) {
	t.Helper()
	for _, a := range log.Records {
		for _, b := range log.Records {
			if a == b {
				continue
			}
			if q.Despite.EvalPair(d, a, b) && q.Observed.EvalPair(d, a, b) && !q.Expected.EvalPair(d, a, b) {
				q.ID1, q.ID2 = a.ID, b.ID
				return
			}
		}
	}
	t.Fatal("no pair of interest satisfies the query")
}

// TestStratifiedStatisticalEquivalence is the approximate mode's
// acceptance test: on a planted-signal log the stratified explainer must
// find the same cause as the exact one, its Wilson intervals must be
// populated and ordered, the exact precision must fall inside the
// advertised bound, and the whole stratified pipeline must be
// byte-identical across shard counts 1, 2 and 7.
func TestStratifiedStatisticalEquivalence(t *testing.T) {
	log := zoneSkewedLog(350, 20, rand.New(rand.NewSource(31)))
	q := zoneQuery()
	d := features.NewDeriver(log.Schema, features.Level3)
	bindZonePair(t, log, d, q)

	exact, err := func() (*Explanation, error) {
		ex, err := NewExplainer(log, Config{Width: 1, Seed: 11})
		if err != nil {
			return nil, err
		}
		return ex.Explain(context.Background(), q)
	}()
	if err != nil {
		t.Fatal(err)
	}

	strat := func(shards int) *Explanation {
		cfg := Config{Width: 1, Seed: 11, SampleMode: SampleStratified, SampleBudget: 2500}
		if shards > 0 {
			cfg.Exec = Exec{Shards: shards, Runner: serialEvalRunner{}, Layout: FlatLayout(log)}
		}
		ex, err := NewExplainer(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x, err := ex.Explain(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	base := strat(0)

	// Same discovered cause: duration is x, so the one-atom clause must be
	// an x-derived predicate in both modes.
	causeOf := func(x *Explanation) string {
		if len(x.Because) != 1 {
			t.Fatalf("because = %v", x.Because)
		}
		raw, _ := features.ParseName(x.Because[0].Feature)
		return raw
	}
	if causeOf(exact) != "x" || causeOf(base) != "x" {
		t.Errorf("planted cause not recovered: exact=%v stratified=%v", exact.Because, base.Because)
	}

	// Wilson bounds: populated, ordered, and containing both the
	// stratified estimate and the exact value. eps absorbs float rounding
	// at the interval ends: with every sampled pair positive the Wilson
	// upper bound is mathematically exactly 1 but computes to 1 − 2ulp.
	const eps = 1e-9
	if len(base.Atoms) != 1 {
		t.Fatalf("stratified atoms = %+v", base.Atoms)
	}
	st := base.Atoms[0]
	if !(st.PrecisionLo <= st.Precision+eps && st.Precision <= st.PrecisionHi+eps && st.PrecisionLo < st.PrecisionHi) {
		t.Errorf("precision bound [%v, %v] does not bracket %v", st.PrecisionLo, st.PrecisionHi, st.Precision)
	}
	if !(st.GeneralityLo <= st.Generality+eps && st.Generality <= st.GeneralityHi+eps && st.GeneralityLo < st.GeneralityHi) {
		t.Errorf("generality bound [%v, %v] does not bracket %v", st.GeneralityLo, st.GeneralityHi, st.Generality)
	}
	if exact.TrainPrecision < st.PrecisionLo-eps || exact.TrainPrecision > st.PrecisionHi+eps {
		t.Errorf("exact precision %v outside the stratified 95%% bound [%v, %v]",
			exact.TrainPrecision, st.PrecisionLo, st.PrecisionHi)
	}
	if !(base.TrainRelevanceLo <= base.TrainRelevance+eps && base.TrainRelevance <= base.TrainRelevanceHi+eps) {
		t.Errorf("relevance bound [%v, %v] does not bracket %v",
			base.TrainRelevanceLo, base.TrainRelevanceHi, base.TrainRelevance)
	}
	if exact.TrainRelevanceLo != 0 || exact.TrainRelevanceHi != 0 || exact.Atoms[0].PrecisionHi != 0 {
		t.Error("exact mode populated confidence bounds; they must stay zero")
	}

	// Shard invariance of the full stratified pipeline.
	want := fmt.Sprintf("%v %+v %v %v", base.Because, base.Atoms, base.TrainRelevance, base.RelatedPairs)
	for _, shards := range []int{1, 2, 7} {
		x := strat(shards)
		got := fmt.Sprintf("%v %+v %v %v", x.Because, x.Atoms, x.TrainRelevance, x.RelatedPairs)
		if got != want {
			t.Errorf("shards=%d: stratified explanation differs:\n%s\nvs in-process:\n%s", shards, got, want)
		}
	}
}

// TestTopKPruning pins the candidate cap: an exact-mode explainer with
// TopK wide enough to keep everything matches TopK=0 exactly, and a
// too-narrow TopK still yields a valid explanation over the planted
// signal (the top-gain feature survives the cut).
func TestTopKPruning(t *testing.T) {
	log := zoneSkewedLog(200, 10, rand.New(rand.NewSource(37)))
	q := zoneQuery()
	d := features.NewDeriver(log.Schema, features.Level3)
	bindZonePair(t, log, d, q)

	explain := func(topK int) string {
		ex, err := NewExplainer(log, Config{Width: 2, Seed: 3, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		x, err := ex.Explain(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return x.String()
	}
	base := explain(0)
	if wide := explain(1000); wide != base {
		t.Errorf("TopK=1000 changed the explanation:\n%s\nvs\n%s", wide, base)
	}
	narrow := explain(1)
	ex, err := NewExplainer(log, Config{Width: 2, Seed: 3, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	x, err := ex.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Because) == 0 {
		t.Fatalf("TopK=1 produced an empty clause (%s)", narrow)
	}
	for _, a := range x.Because {
		if raw, _ := features.ParseName(a.Feature); raw != "x" {
			t.Errorf("TopK=1 kept a non-top-gain feature: %v", x.Because)
		}
	}
}
