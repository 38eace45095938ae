package core

// Metamorphic and property tests for the shard planner over a flat
// log's own slices. The reference is the independent oracle
// (oracle_test.go) for what is enumerated, and the one-spec serial plan
// for the order: whatever the shard count, the plan must partition the
// serial pair walk exactly — every related pair in exactly one shard,
// shard union equal to the serial pair set in serial order — and
// planning must be a pure function of the records, invariant under memo
// (columnar view) rebuilds and unaffected by later log appends.

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

// groupedLog builds a log with a nominal blocking feature whose group
// sizes are deliberately lopsided, so proportional cuts straddle group
// boundaries.
func groupedLog(n int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "script", Kind: joblog.Nominal},
		{Name: "x", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	for i := 0; i < n; i++ {
		script := "big"
		if i%4 == 1 {
			script = "small-" + fmt.Sprint(i%3)
		}
		x := 10 + rng.Float64()*1000
		values := []joblog.Value{joblog.Str(script), joblog.Num(x), joblog.Num(x)}
		if i%13 == 5 {
			values[0] = joblog.None() // unblockable under script_issame = T
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("j%03d", i), Values: values})
	}
	return log
}

func blockedQuery() *pxql.Query {
	return &pxql.Query{
		Despite:  pxql.Predicate{{Feature: "script_issame", Op: pxql.OpEq, Value: features.ValT}},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
}

// pairRef is an ordered pair of record indices, the unit the enumeration
// tests compare pair sets by.
type pairRef struct {
	a, b int
}

// refs zips the index planes into pairs.
func (ps *pairPlanes) refs() []pairRef {
	out := make([]pairRef, ps.len())
	for i := range out {
		out[i] = pairRef{ps.a[i], ps.b[i]}
	}
	return out
}

// decodeSlices decodes payload slices and concatenates them, in order,
// into the log a batch's specs run against.
func decodeSlices(slices []LogSlice) (*joblog.Log, error) {
	logs := make([]*joblog.Log, len(slices))
	for i := range slices {
		l, err := slices[i].Decode()
		if err != nil {
			return nil, err
		}
		logs[i] = l
	}
	return joblog.Concat(logs)
}

// sliceView is what a worker walks: the log's slices, decoded and
// concatenated.
func sliceView(t testing.TB, log *joblog.Log) *joblog.Log {
	t.Helper()
	data, err := decodeSlices(LogSlices(log))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runPlan executes every spec of a plan over log's shipped slices, in
// order, and returns the merged refs and labels.
func runPlan(t *testing.T, log *joblog.Log, specs []EnumSpec) (refs []pairRef, labels []bool) {
	t.Helper()
	data := sliceView(t, log)
	for si := range specs {
		res, err := specs[si].RunWith(data)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		for k := range res.RefA {
			refs = append(refs, pairRef{res.RefA[k], res.RefB[k]})
		}
		labels = append(labels, res.Labels...)
	}
	return refs, labels
}

func TestPlanEnumShardsPartitionsSerialWalk(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(3)))
	q := blockedQuery()

	for _, tc := range []struct {
		maxPairs     int
		seed         int64
		capped, skip bool
	}{
		{0, 1, false, false},      // full pair space
		{500, 1, true, false},     // Bernoulli-capped, hashed per pair: keep decisions must agree across shards
		{500, 42, true, false},    // a different splitmix stream
		{250, 1, true, true},      // capped below the crossover: per-row skip streams must agree across shards
		{250, 42, true, true},     //
		{100000, 7, false, false}, // cap above the space: keepP == 1
	} {
		requireRegime(t, log, q.Despite, tc.maxPairs, tc.capped, tc.skip)
		pairSeed := stats.DeriveSeed(tc.seed, "plan-test")
		serial := enumLocal(t, log, q, q.Despite, tc.maxPairs, pairSeed, serialExec)
		checkRelated(t, fmt.Sprintf("maxPairs=%d seed=%d serial", tc.maxPairs, tc.seed), log, q, q.Despite, serial, !tc.capped)
		if serial.len() < 50 {
			t.Fatalf("maxPairs=%d seed=%d: the serial walk kept %d pairs; too few to compare", tc.maxPairs, tc.seed, serial.len())
		}
		for _, nShards := range []int{1, 2, 3, 7, 16, 64} {
			name := fmt.Sprintf("maxPairs=%d seed=%d shards=%d", tc.maxPairs, tc.seed, nShards)
			specs := PlanEnumShards(log, features.Level3, q, q.Despite, tc.maxPairs, nShards, pairSeed)
			if len(specs) != nShards {
				t.Fatalf("%s: planned %d specs", name, len(specs))
			}
			refs, labels := runPlan(t, log, specs)

			// Union equals the serial pair set, in serial order, with
			// identical labels — which also implies every serial pair
			// appears at least once.
			if !reflect.DeepEqual(refs, serial.refs()) || !reflect.DeepEqual(labels, serial.labels) {
				t.Errorf("%s: merged shard output differs from the serial walk (%d pairs vs %d)",
					name, len(refs), serial.len())
				continue
			}
			// Exactly once: no pair is owned by two shards.
			seen := make(map[pairRef]int, len(refs))
			for _, r := range refs {
				seen[r]++
			}
			for r, c := range seen {
				if c != 1 {
					t.Errorf("%s: pair %v enumerated %d times", name, r, c)
				}
			}
		}
	}
}

// TestPlanEnumShardsInvariance pins that planning is a pure function of
// the record list: rebuilding the memoized columnar view does not change
// the plan, and a plan keeps producing the same pairs after the source
// log grows (specs are self-contained copies addressing records by
// index, and appends never move a record).
func TestPlanEnumShardsInvariance(t *testing.T) {
	log := groupedLog(60, rand.New(rand.NewSource(5)))
	q := blockedQuery()
	seed := stats.DeriveSeed(9, "invariance")

	p1 := PlanEnumShards(log, features.Level3, q, q.Despite, 300, 5, seed)
	refs1, labels1 := runPlan(t, log, p1)

	// Force the columnar view (and its intern table) into existence —
	// count-invalidation state must not leak into plans.
	log.Columns()
	p2 := PlanEnumShards(log, features.Level3, q, q.Despite, 300, 5, seed)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("plan changed after building the columnar view")
	}

	// Grow the log: the old plan still runs to the same output over the
	// grown log's slices, and a fresh plan over the grown log still
	// partitions its serial walk.
	extra := groupedLog(25, rand.New(rand.NewSource(11)))
	for i, r := range extra.Records {
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("late%03d", i), Values: r.Values})
	}
	log.Columns() // rebuild the memo at the new count
	refsAgain, labelsAgain := runPlan(t, log, p1)
	if !reflect.DeepEqual(refsAgain, refs1) || !reflect.DeepEqual(labelsAgain, labels1) {
		t.Error("plan output changed after the source log grew")
	}

	serial := enumLocal(t, log, q, q.Despite, 300, seed, serialExec)
	checkRelated(t, "grown log", log, q, q.Despite, serial, false)
	p3 := PlanEnumShards(log, features.Level3, q, q.Despite, 300, 5, seed)
	refs3, labels3 := runPlan(t, log, p3)
	if !reflect.DeepEqual(refs3, serial.refs()) || !reflect.DeepEqual(labels3, serial.labels) {
		t.Error("plan over the grown log no longer partitions its serial walk")
	}
}

// TestPlanEvalShardsMatchesSerial pins the sharded evaluation walk:
// merged shard counts must reproduce the one-spec serial metrics — and,
// uncapped, the oracle's Definitions 4–6 — exactly: same context/because
// pair counts, same ratios, at every shard count, with and without the
// pair cap, for empty and non-trivial explanations.
func TestPlanEvalShardsMatchesSerial(t *testing.T) {
	log := groupedLog(90, rand.New(rand.NewSource(4)))
	q := blockedQuery()
	explanations := []*Explanation{
		{},
		{Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}}},
		{
			Despite: pxql.Predicate{{Feature: "x_issame", Op: pxql.OpEq, Value: features.ValF}},
			Because: pxql.Predicate{{Feature: "x_diff", Op: pxql.OpNe, Value: joblog.Str("")}},
		},
	}
	requireRegime(t, log, q.Despite, 500, true, false)
	requireRegime(t, log, q.Despite, 250, true, true)
	for xi, x := range explanations {
		for _, maxPairs := range []int{0, 500, 250} {
			serial, serialErr := EvaluateExplanation(context.Background(), log, features.Level3, q, x, maxPairs, 3, serialExec)
			if want, defined := oracleMetrics(log, features.Level3, q, x); maxPairs == 0 && ((serialErr == nil) != defined || (defined && serial != want)) {
				t.Errorf("x=%d: serial metrics %+v (err %v) differ from Definitions 4–6 %+v (defined %v)", xi, serial, serialErr, want, defined)
			}
			for _, nShards := range []int{1, 2, 3, 7, 16, 64} {
				name := fmt.Sprintf("x=%d maxPairs=%d shards=%d", xi, maxPairs, nShards)
				specs := PlanEvalShards(log, features.Level3, q, x, maxPairs, nShards, stats.DeriveSeed(3, "evaluate"))
				if len(specs) != nShards {
					t.Fatalf("%s: planned %d specs", name, len(specs))
				}
				var context, exp, bec, obsGivenBec int
				data := sliceView(t, log)
				for si := range specs {
					res, err := specs[si].RunWith(data)
					if err != nil {
						t.Fatalf("%s: spec %d: %v", name, si, err)
					}
					context += res.Context
					exp += res.Exp
					bec += res.Bec
					obsGivenBec += res.ObsGivenBec
				}
				merged, mergedErr := metricsFromCounts(context, exp, bec, obsGivenBec)
				if (serialErr == nil) != (mergedErr == nil) {
					t.Fatalf("%s: error mismatch: serial=%v merged=%v", name, serialErr, mergedErr)
				}
				if serialErr == nil && merged != serial {
					t.Errorf("%s: merged metrics %+v differ from serial %+v", name, merged, serial)
				}
			}
		}
	}
}

// TestPlanEvalShardsSharedRunner pins the entry point's executor seam:
// the evaluation through a runner, and through the local executor at
// several spec counts and parallelisms, equals the serial metrics.
func TestPlanEvalShardsSharedRunner(t *testing.T) {
	log := groupedLog(60, rand.New(rand.NewSource(6)))
	q := blockedQuery()
	x := &Explanation{Because: pxql.Predicate{{Feature: "x_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}}}
	serial, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 400, 9, serialExec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []Exec{{}, {Shards: 4}, {Parallelism: 2}, {Parallelism: 7, Shards: 3},
		{Shards: 4, Runner: serialEvalRunner{}}} {
		got, err := EvaluateExplanation(context.Background(), log, features.Level3, q, x, 400, 9, ex)
		if err != nil {
			t.Fatal(err)
		}
		if got != serial {
			t.Errorf("exec %+v: metrics %+v differ from serial %+v", ex, got, serial)
		}
	}
}

// serialEvalRunner decodes the shipped slices and executes specs inline
// — the minimal ShardRunner for planner tests inside the core package
// (internal/shard cannot be imported from here).
type serialEvalRunner struct{}

func (serialEvalRunner) RunEnum(slices []LogSlice, specs []EnumSpec) ([]EnumResult, error) {
	data, err := decodeSlices(slices)
	if err != nil {
		return nil, err
	}
	out := make([]EnumResult, len(specs))
	for i := range specs {
		r, err := specs[i].RunWith(data)
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

func (serialEvalRunner) RunEval(slices []LogSlice, specs []EvalSpec) ([]EvalResult, error) {
	data, err := decodeSlices(slices)
	if err != nil {
		return nil, err
	}
	out := make([]EvalResult, len(specs))
	for i := range specs {
		r, err := specs[i].RunWith(data)
		if err != nil {
			return nil, err
		}
		out[i] = *r
	}
	return out, nil
}

// TestLogSliceHashStability pins the content-address: equal content
// hashes equal, a record mutation changes the hash, and a log ships the
// same slice every time it is asked (the property references to held
// slices depend on).
func TestLogSliceHashStability(t *testing.T) {
	log := groupedLog(30, rand.New(rand.NewSource(12)))
	h1 := joblog.HashSlice(log.Wire())
	h2 := joblog.HashSlice(log.Wire())
	if h1 == "" || h1 != h2 {
		t.Fatalf("equal content produced hashes %q vs %q", h1, h2)
	}
	wire := log.Wire()
	wire.Records[0].Values[1].Num++
	if joblog.HashSlice(wire) == h1 {
		t.Error("record change did not change the hash")
	}

	if ss, again := LogSlices(log), LogSlices(log); len(ss) != 1 || ss[0].Hash != h1 || again[0].Hash != h1 {
		t.Errorf("the log's one slice is not its content address, or changes between calls")
	}
}

// TestPlanEnumShardsEmptyAndStraddling pins the two planner edge cases
// the equivalence suite relies on: more shards than outer units yields
// empty specs that execute to empty results, and a group larger than
// the per-shard unit budget appears in several specs with disjoint,
// covering outer ranges.
func TestPlanEnumShardsEmptyAndStraddling(t *testing.T) {
	log := groupedLog(40, rand.New(rand.NewSource(8)))
	q := blockedQuery()
	specs := PlanEnumShards(log, features.Level3, q, q.Despite, 0, 64, 17)

	empties := 0
	ranges := make(map[string][][2]int) // group fingerprint -> outer ranges
	sizes := make(map[string]int)
	for _, s := range specs {
		if len(s.Groups) == 0 {
			empties++
			if res, err := s.RunWith(sliceView(t, log)); err != nil || len(res.RefA) != 0 {
				t.Fatalf("empty spec: res=%v err=%v", res, err)
			}
		}
		for _, g := range s.Groups {
			key := fmt.Sprint(g.Members[0])
			ranges[key] = append(ranges[key], [2]int{g.Lo, g.Hi})
			sizes[key] = len(g.Members)
		}
	}
	if empties == 0 {
		t.Error("expected empty specs at 64 shards")
	}
	straddled := false
	for key, rs := range ranges {
		if len(rs) > 1 {
			straddled = true
			// Disjoint, contiguous, covering [0, len(group)).
			next := 0
			for _, r := range rs {
				if r[0] != next || r[1] <= r[0] {
					t.Errorf("group %s: outer ranges %v are not a contiguous partition", key, rs)
					break
				}
				next = r[1]
			}
			if next != sizes[key] {
				t.Errorf("group %s: outer ranges %v do not cover %d members", key, rs, sizes[key])
			}
		}
	}
	if !straddled {
		t.Error("expected the big group to straddle shard boundaries at 64 shards")
	}
}

// TestLogSlicesSpanSegments pins a flat log's slices past one segment:
// a log longer than the seal threshold ships as several slices, and
// plans run over them still partition the serial walk, with blocking
// groups straddling the slice boundary.
func TestLogSlicesSpanSegments(t *testing.T) {
	log := groupedLog(joblog.DefaultSealThreshold+150, rand.New(rand.NewSource(14)))
	if ss := LogSlices(log); len(ss) != 2 || len(ss[0].Log.Records)+len(ss[1].Log.Records) != log.Len() {
		t.Fatalf("the log ships as %d slices", len(ss))
	}
	q := blockedQuery()
	seed := stats.DeriveSeed(2, "flat-span")
	serial := enumLocal(t, log, q, q.Despite, 400, seed, serialExec)
	for _, nShards := range []int{1, 2, 7} {
		refs, labels := runPlan(t, log, PlanEnumShards(log, features.Level3, q, q.Despite, 400, nShards, seed))
		if !reflect.DeepEqual(refs, serial.refs()) || !reflect.DeepEqual(labels, serial.labels) {
			t.Errorf("shards=%d: plan over two slices differs from the serial walk", nShards)
		}
	}
}
