package core

// Tests for seek-driven within-group enumeration (seek.go): filtering a
// blocking group to the rows the sorted index proves able to satisfy the
// despite clause must leave enumeration byte-identical, or, below the
// skip crossover, an equally valid thinning of the same related set.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// needleLog builds the seek fixture: nGroups wide blocking groups
// (blocked by `script`) where `mem` varies WITHIN each group — one row in
// every `every` holds the needle value 8, the rest {1, 2, 3}, with a
// sprinkle of missing and NaN cells — so a `mem > 3.5` conjunct cannot
// kill any of them via zone maps (every group's zone spans [1, 8]) but
// proves all non-needle rows unable to sit on either side of a
// qualifying pair. One further group, script-dead, holds no needle at
// all: the seeker empties it.
func needleLog(n, nGroups, every int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "script", Kind: joblog.Nominal},
		{Name: "mem", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	for i := 0; i < n; i++ {
		script := fmt.Sprintf("script-%02d", i%nGroups)
		mem := joblog.Num(float64(1 + i%3))
		switch {
		case i%23 == 3:
			script = "script-dead"
		case i%every == 2:
			mem = joblog.Num(8)
		case i%97 == 13:
			mem = joblog.Value{} // missing: can never make the base present
		case i%89 == 11:
			mem = joblog.Num(math.NaN()) // NaN: never equal to itself
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("n%05d", i), Values: []joblog.Value{
			joblog.Str(script),
			mem,
			joblog.Num(10 + rng.Float64()*1000),
		}})
	}
	return log
}

func needleQuery() *pxql.Query {
	return &pxql.Query{
		Despite: pxql.Predicate{
			{Feature: "script_issame", Op: pxql.OpEq, Value: features.ValT},
			{Feature: "mem", Op: pxql.OpGt, Value: joblog.Num(3.5)},
		},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("GT")}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: joblog.Str("SIM")}},
	}
}

// TestSeekEnumExact pins what row filtering may do to an enumeration,
// per thinning regime of walkTiles:
//
//   - uncapped (keepP = 1) and capped at or above the crossover
//     (skipKeepP <= keepP < 1): a pair's fate is a pure function of
//     (seed, i, j), so seek on/off are byte-identical;
//   - capped below the crossover: the fate is keyed on the inner
//     member's position in its group, which filtering renumbers — seek
//     on/off are two thinnings of the same related set, each a subset of
//     Definition 7's pairs with their labels and of binomial size.
//
// Every capped leg keeps at least 50 pairs, so no comparison is between
// empty sets.
func TestSeekEnumExact(t *testing.T) {
	log := needleLog(600, 3, 5, rand.New(rand.NewSource(43)))
	q := needleQuery()

	rows := func(gs [][]int) int {
		n := 0
		for _, g := range gs {
			n += len(g)
		}
		return n
	}
	seeked, _ := blockedGroupsOpt(log, q.Despite, 0, true)
	all, _ := blockedGroupsOpt(log, q.Despite, 0, false)
	if len(all) == 0 || rows(seeked) >= rows(all) || len(seeked) >= len(all) {
		t.Fatalf("of %d rows in %d groups the seeker kept %d rows in %d groups; the fixture is toothless",
			rows(all), len(all), rows(seeked), len(seeked))
	}
	exact := len(oracleRelated(log, features.Level3, q, q.Despite))

	for _, tc := range []struct {
		name     string
		maxPairs int
		skip     bool
	}{
		{"uncapped", 0, false},
		{"capped-dense", 40000, false},
		{"capped-skip", 6000, true},
	} {
		_, keepP := blockedGroupsOpt(log, q.Despite, tc.maxPairs, false)
		if (tc.maxPairs == 0) != (keepP == 1) || skipSampled(keepP) != tc.skip {
			t.Fatalf("%s: maxPairs %d gives keepP %v; the fixture misses its regime", tc.name, tc.maxPairs, keepP)
		}
		walk := func(seek bool) *pairPlanes {
			ps := enumSwitched(t, log, q, tc.maxPairs, 77, seek)
			name := fmt.Sprintf("%s seek=%v", tc.name, seek)
			checkRelated(t, name, log, q, q.Despite, ps, keepP == 1)
			mean := keepP * float64(exact)
			if d := math.Abs(float64(ps.len()) - mean); ps.len() < 50 || d > 5*math.Sqrt(mean*(1-keepP)) {
				t.Errorf("%s: kept %d of %d related pairs at keepP %.3f; want at least 50 and within 5σ of %.0f",
					name, ps.len(), exact, keepP, mean)
			}
			return ps
		}
		plain, seekOnly := walk(false), walk(true)
		if same := samePairs(seekOnly, plain); same == tc.skip {
			t.Errorf("%s: seek on/off identical = %v (%d vs %d pairs); want identical exactly when the walk is not skip-sampled",
				tc.name, same, seekOnly.len(), plain.len())
		}
		// The planner's own default (seek on) is the seeked walk.
		if got := enumLocal(t, log, q, q.Despite, tc.maxPairs, 77, serialExec); !samePairs(got, seekOnly) {
			t.Errorf("%s: planned enumeration differs from the seeked walk", tc.name)
		}
	}
}

// TestRowSeekerLowering pins which conjuncts produce a filter: numeric
// base ranges do; OpNe, nominal columns, kind mismatches and unknown
// features must not (they cannot be lowered to one exact range).
func TestRowSeekerLowering(t *testing.T) {
	log := needleLog(100, 2, 50, rand.New(rand.NewSource(47)))
	if s := newRowSeeker(log, needleQuery().Despite); s == nil {
		t.Error("numeric base range conjunct produced no seeker")
	}
	for _, tc := range []struct {
		name string
		a    pxql.Atom
	}{
		{"ne", pxql.Atom{Feature: "mem", Op: pxql.OpNe, Value: joblog.Num(3)}},
		{"nominal", pxql.Atom{Feature: "script", Op: pxql.OpEq, Value: joblog.Str("script-00")}},
		{"kind-mismatch", pxql.Atom{Feature: "mem", Op: pxql.OpGt, Value: joblog.Str("8")}},
		{"missing-const", pxql.Atom{Feature: "mem", Op: pxql.OpGt, Value: joblog.Value{}}},
		{"unknown", pxql.Atom{Feature: "nope", Op: pxql.OpGt, Value: joblog.Num(1)}},
		{"issame", pxql.Atom{Feature: "mem_issame", Op: pxql.OpEq, Value: features.ValT}},
	} {
		if s := newRowSeeker(log, pxql.Predicate{tc.a}); s != nil {
			t.Errorf("%s: conjunct %v produced a seeker; it has no exact one-range lowering", tc.name, tc.a)
		}
	}

	// An unsatisfiable range (NaN constant) filters every row, so every
	// group dies — still exact: no pair can satisfy the conjunct.
	s := newRowSeeker(log, pxql.Predicate{{Feature: "mem", Op: pxql.OpEq, Value: joblog.Num(math.NaN())}})
	if s == nil {
		t.Fatal("NaN equality lowered to no seeker; want the empty range")
	}
	if g := s.filter([]int{0, 1, 2, 3}); len(g) != 0 {
		t.Errorf("NaN equality kept rows %v; the range is empty", g)
	}
}

// TestPairCountSaturation pins the overflow satellites: pair-space
// products on huge synthetic group sizes clamp instead of wrapping.
func TestPairCountSaturation(t *testing.T) {
	const maxU64 = ^uint64(0)
	if got := pairCount64(0); got != 0 {
		t.Errorf("pairCount64(0) = %d", got)
	}
	if got := pairCount64(1); got != 0 {
		t.Errorf("pairCount64(1) = %d", got)
	}
	if got := pairCount64(5); got != 20 {
		t.Errorf("pairCount64(5) = %d, want 20", got)
	}
	// 2^33 rows: n·(n−1) ≈ 2^66 overflows uint64 and must saturate (it
	// would wrap to a small value and corrupt keep probabilities). An int
	// of 32 bits cannot count that many rows, so there the product always
	// fits.
	if n := 1 << (bits.UintSize/2 + 1); bits.UintSize == 64 {
		if got := pairCount64(n); got != maxU64 {
			t.Errorf("pairCount64(1<<33) = %d, want saturation", got)
		}
	} else if got, want := pairCount64(math.MaxInt32), uint64(math.MaxInt32)*(math.MaxInt32-1); got != want {
		t.Errorf("pairCount64(MaxInt32) = %d, want %d", got, want)
	}
	if got := satAdd64(maxU64-1, 5); got != maxU64 {
		t.Errorf("satAdd64 overflow = %d, want saturation", got)
	}
	if got := satAdd64(3, 4); got != 7 {
		t.Errorf("satAdd64(3, 4) = %d", got)
	}
}
