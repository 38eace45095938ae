package core

// An independent reference for the two quadratic walks, written straight
// from the paper's definitions and sharing no code with the engine's
// planners or kernels (pairs.go, segment.go, shard.go): every ordered
// pair i ≠ j, interpreted Predicate.EvalPair on the boxed records — no
// blocking, no prefilter, no zone maps, no seeks, no tiles, no columns.
// It is what the equivalence suites compare the engine against, so they
// never compare the engine with itself. Exact mode only: sampled walks
// are checked for executor/spec-count invariance among themselves and as
// subsets of the oracle's set.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// oraclePair is one labelled related pair (obs: performed as observed).
type oraclePair struct {
	a, b int
	obs  bool
}

// oracleRelated is Definition 7: the ordered pairs of distinct records
// that satisfy the despite clause and at least one of observed and
// expected, in (a, b) order. A pair satisfying both counts as observed.
func oracleRelated(log *joblog.Log, level features.Level, q *pxql.Query, despite pxql.Predicate) []oraclePair {
	d := features.NewDeriver(log.Schema, level)
	out := []oraclePair{}
	recs := records(log)
	for i, a := range recs {
		for j, b := range recs {
			if i == j || !despite.EvalPair(d, a, b) {
				continue
			}
			obs := q.Observed.EvalPair(d, a, b)
			if obs || q.Expected.EvalPair(d, a, b) {
				out = append(out, oraclePair{i, j, obs})
			}
		}
	}
	return out
}

// oracleMetrics is Definitions 4–6 over the ordered pairs satisfying
// des ∧ des': relevance P(exp | ctx), precision P(obs | bec ∧ ctx) and
// generality P(bec | ctx). ok is false when no pair satisfies the
// context (the measures are undefined).
func oracleMetrics(log *joblog.Log, level features.Level, q *pxql.Query, x *Explanation) (m Metrics, ok bool) {
	d := features.NewDeriver(log.Schema, level)
	exp, obsAndBec := 0, 0
	recs := records(log)
	for i, a := range recs {
		for j, b := range recs {
			if i == j || !q.Despite.EvalPair(d, a, b) || !x.Despite.EvalPair(d, a, b) {
				continue
			}
			m.ContextPairs++
			if q.Expected.EvalPair(d, a, b) {
				exp++
			}
			if x.Because.EvalPair(d, a, b) {
				m.BecausePairs++
				if q.Observed.EvalPair(d, a, b) {
					obsAndBec++
				}
			}
		}
	}
	if m.ContextPairs == 0 {
		return m, false
	}
	m.Relevance = float64(exp) / float64(m.ContextPairs)
	m.Generality = float64(m.BecausePairs) / float64(m.ContextPairs)
	if m.BecausePairs > 0 {
		m.Precision = float64(obsAndBec) / float64(m.BecausePairs)
	}
	return m, true
}

// sortedSet renders an engine pair set in the oracle's form and order.
func sortedSet(ps *pairPlanes) []oraclePair {
	out := make([]oraclePair, ps.len())
	for i, r := range ps.refs() {
		out[i] = oraclePair{r.a, r.b, ps.labels[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

// oracleLog draws a small log built to reach the engine's special cases:
// skewed blocking groups including single-member ones, a missing blocking
// value (unblockable), a per-group constant (row seeks empty whole
// groups), a seekable numeric column with missing, NaN, +Inf and -0
// cells, a nominal column with missing and empty cells, and a jittered
// numeric column whose values cluster within the 10% SIM band without
// being equal.
func oracleLog(rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "g", Kind: joblog.Nominal},
		{Name: "k", Kind: joblog.Numeric},
		{Name: "v", Kind: joblog.Numeric},
		{Name: "s", Kind: joblog.Nominal},
		{Name: "j", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	n := 1 + rng.Intn(45)
	nGroups := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		gi := rng.Intn(nGroups)
		if rng.Intn(3) == 0 {
			gi = 0 // skew: one big group, the rest thin or single-member
		}
		g, v, s := joblog.Str(fmt.Sprint("g", gi)), joblog.Num(float64(rng.Intn(8))), joblog.Str(fmt.Sprint("s", rng.Intn(3)))
		switch rng.Intn(12) {
		case 0:
			g = joblog.None()
		case 1:
			v = joblog.None()
		case 2:
			v = joblog.Num(math.NaN())
		case 3:
			v = joblog.Num([]float64{math.Inf(1), math.Copysign(0, -1)}[i%2])
		case 4:
			s = joblog.None()
		case 5:
			s = joblog.Str("")
		}
		// Three clusters a factor of two apart, each spread over 6%:
		// similar within a cluster (rarely equal), never across.
		j := joblog.Num(float64(int(100)<<rng.Intn(3)) * (1 + 0.06*rng.Float64()))
		switch rng.Intn(15) {
		case 0:
			j = joblog.None()
		case 1:
			j = joblog.Num(math.NaN())
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{
			g, joblog.Num(float64(gi % 3)), v, s, j, joblog.Num(float64(10 + rng.Intn(40))),
		}})
	}
	return log
}

// oracleDespites are the despite-clause shapes the planners specialise
// on: none, blocked, blocked + zone-prunable, blocked + seekable (a
// range and a NaN-poisoned equality), a base-equality prefilter, and
// blocking on a numeric column — near-equal values (SIM-chain classes,
// not exact-value keys).
func oracleDespites() map[string]pxql.Predicate {
	blocked := pxql.Atom{Feature: "g_issame", Op: pxql.OpEq, Value: features.ValT}
	return map[string]pxql.Predicate{
		"none":      nil,
		"blocked":   {blocked},
		"zone":      {blocked, {Feature: "k", Op: pxql.OpGt, Value: joblog.Num(0.5)}},
		"seek":      {blocked, {Feature: "v", Op: pxql.OpGe, Value: joblog.Num(5)}},
		"seek-nan":  {blocked, {Feature: "v", Op: pxql.OpEq, Value: joblog.Num(math.NaN())}},
		"prefilter": {{Feature: "s", Op: pxql.OpEq, Value: joblog.Str("s1")}, {Feature: "v", Op: pxql.OpLt, Value: joblog.Num(6)}},

		"blocked-numeric": {{Feature: "j_issame", Op: pxql.OpEq, Value: features.ValT}},
	}
}

// checkOracle is the property: on random small logs, exact enumeration
// and evaluation under ex — whoever that makes the executor — equal the
// oracle, for every despite shape. A positive sealEvery walks the same
// records as a store snapshot sealed that often, so blocking groups
// straddle segment boundaries and the tail.
func checkOracle(t *testing.T, ex Exec, sealEvery int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20120827))
	x := &Explanation{
		Despite: pxql.Predicate{{Feature: "k_issame", Op: pxql.OpEq, Value: features.ValT}},
		Because: pxql.Predicate{{Feature: "v_compare", Op: pxql.OpEq, Value: features.ValGT}},
	}
	related, contexts, ranked := map[string]int{}, map[string]int{}, map[string]int{}
	for trial := 0; trial < 25; trial++ {
		log := oracleLog(rng)
		walked := log
		if sealEvery > 0 {
			walked = storeOver(log, sealEvery)
		}
		for name, despite := range oracleDespites() {
			q := oracleQuery(despite)
			ps, err := runEnumSpecs(ctx, ex, walked,
				PlanEnumShards(walked, features.Level3, q, despite, 0, ex.shards(), 11))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			wantSet := oracleRelated(log, features.Level3, q, despite)
			if got := sortedSet(ps.flatten()); !reflect.DeepEqual(got, wantSet) {
				t.Errorf("trial %d %s (%d records): engine related set (%d pairs) differs from Definition 7 (%d pairs)",
					trial, name, log.Len(), len(got), len(wantSet))
			}
			got, err := EvaluateExplanation(ctx, walked, features.Level3, q, x, 0, 11, ex)
			want, defined := oracleMetrics(log, features.Level3, q, x)
			if (err == nil) != defined || (defined && got != want) {
				t.Errorf("trial %d %s: engine metrics %+v (err %v) differ from Definitions 4–6 %+v (defined %v)",
					trial, name, got, err, want, defined)
			}
			related[name] += len(wantSet)
			contexts[name] += want.ContextPairs
			if rs := rankSpaceOf(log, q, despite); rs != nil {
				ranked[name]++
				checkRankLeg(t, fmt.Sprintf("trial %d %s", trial, name), walked, q, ex, rs, wantSet)
			}
		}
	}
	// Teeth: only the NaN-poisoned equality may have nothing to find, and
	// exactly the shapes blocking proves whole are drawn by rank.
	for name := range oracleDespites() {
		if name != "seek-nan" && (related[name] == 0 || contexts[name] == 0) {
			t.Errorf("%s: the generator produced %d related and %d context pairs over all trials; the shape is untested",
				name, related[name], contexts[name])
		}
		if want := rankShapes[name]; (ranked[name] > 0) != want {
			t.Errorf("%s: rank-drawn in %d trials, want eligible=%v", name, ranked[name], want)
		}
	}
}

// rankShapes are the oracle despite shapes the rank sampler draws: those
// whose every conjunct blocking proves. Every oracle log's durations are
// positive, so the target never rules one out.
var rankShapes = map[string]bool{
	"none": true, "blocked": true, "blocked-numeric": true,
}

// oracleQuery asks why a pair was slower (GT) than expected (SIM) under
// despite.
func oracleQuery(despite pxql.Predicate) *pxql.Query {
	return &pxql.Query{
		Despite:  despite,
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: features.ValGT}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: features.ValSIM}},
	}
}

// checkRankLeg is the rank sampler's side of the oracle property: its
// exact class counts are Definition 7's, and the training sample an
// explainer draws under ex — small enough that both classes thin — holds
// distinct pairs of that set with the set's labels, byte-identical to the
// serial local explainer's.
func checkRankLeg(t *testing.T, label string, log *joblog.Log, q *pxql.Query, ex Exec, rs *rankSpace, want []oraclePair) {
	t.Helper()
	wantObs := make(map[[2]int]bool, len(want))
	nObs := 0
	for _, p := range want {
		wantObs[[2]int{p.a, p.b}] = p.obs
		nObs += int(bitset.B2u(p.obs))
	}
	if rs.nObs != int64(nObs) || rs.nExp != int64(len(want)-nObs) {
		t.Errorf("%s: rank counts obs=%d exp=%d, Definition 7 has obs=%d exp=%d", label, rs.nObs, rs.nExp, nObs, len(want)-nObs)
	}
	var samples []*pairPlanes
	for _, x := range []Exec{ex, {Parallelism: 1}} {
		e, err := NewExplainer(log, Config{SampleSize: 24, Seed: 5, Exec: x})
		if err != nil {
			t.Fatal(err)
		}
		s, o, n, err := e.trainingSample(context.Background(), q, q.Despite, "because")
		if len(want) == 0 {
			if !errors.Is(err, errNoRelated) {
				t.Errorf("%s: empty related set sampled with err %v", label, err)
			}
			return
		}
		if err != nil || o != int64(nObs) || o+n != int64(len(want)) {
			t.Fatalf("%s: trainingSample counts obs=%d total=%d (err %v), want %d of %d", label, o, o+n, err, nObs, len(want))
		}
		seen := make(map[[2]int]bool, s.len())
		for i := range s.a {
			k := [2]int{s.a[i], s.b[i]}
			if obs, ok := wantObs[k]; !ok || obs != s.labels[i] || seen[k] {
				t.Fatalf("%s: drawn pair %v (observed=%v) is not a distinct pair of Definition 7's set", label, k, s.labels[i])
			}
			seen[k] = true
		}
		samples = append(samples, s)
	}
	if !reflect.DeepEqual(samples[0], samples[1]) {
		t.Errorf("%s: rank sample under %+v differs from the serial local one", label, ex)
	}
}

// CheckOracle exports the property to oracle_pool_test.go (package
// core_test), which may import internal/shard where this package cannot.
var CheckOracle = checkOracle

func TestOracleLocal(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		checkOracle(t, Exec{Parallelism: p}, 0)
	}
	// Explicit spec counts on the coordinator, from one spec up to more
	// specs than members, so groups straddle specs and trailing specs are
	// empty.
	for _, n := range []int{1, 3, 64} {
		checkOracle(t, Exec{Parallelism: 2, Shards: n}, 0)
	}
}
