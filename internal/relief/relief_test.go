package relief

import (
	"math/rand"
	"sort"
	"testing"

	"perfxplain/internal/joblog"
)

// regressionLog: duration = 10*important + noise; `irrelevant` is random.
func regressionLog(n int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "important", Kind: joblog.Numeric},
		{Name: "irrelevant", Kind: joblog.Numeric},
		{Name: "category", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		cat := "a"
		if rng.Float64() < 0.5 {
			cat = "b"
		}
		dur := 10*x + rng.Float64()*0.5
		log.MustAppend(&joblog.Record{ID: "r", Values: []joblog.Value{
			joblog.Num(x), joblog.Num(rng.Float64()), joblog.Str(cat), joblog.Num(dur),
		}})
	}
	return log
}

func TestRegressionWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	log := regressionLog(200, rng)
	w, err := RegressionWeights(log, "duration", Config{K: 10, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	imp := w[log.Schema.MustIndex("important")]
	irr := w[log.Schema.MustIndex("irrelevant")]
	if imp <= irr {
		t.Errorf("important weight %v <= irrelevant weight %v", imp, irr)
	}
	if w[log.Schema.MustIndex("duration")] != 0 {
		t.Error("target weight should be zero")
	}
	ranking := Ranking(log.Schema, w)
	if ranking[0] != "important" && ranking[0] != "duration" {
		// duration has weight 0; important should dominate the rest.
		t.Errorf("ranking = %v", ranking)
	}
}

func TestRegressionWeightsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	log := regressionLog(10, rng)
	if _, err := RegressionWeights(log, "nope", Config{}); err == nil {
		t.Error("unknown target should error")
	}
	if _, err := RegressionWeights(log, "category", Config{}); err == nil {
		t.Error("nominal target should error")
	}
	empty := joblog.NewLog(log.Schema)
	if _, err := RegressionWeights(empty, "duration", Config{}); err == nil {
		t.Error("empty log should error")
	}
}

func TestRegressionDegenerateTarget(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "x", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	for i := 0; i < 10; i++ {
		log.MustAppend(&joblog.Record{ID: "r", Values: []joblog.Value{
			joblog.Num(float64(i)), joblog.Num(42), // constant target
		}})
	}
	w, err := RegressionWeights(log, "duration", Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range w {
		if x != 0 {
			t.Errorf("constant target should yield zero weights, w[%d] = %v", i, x)
		}
	}
}

func TestMissingValuesDoNotPanic(t *testing.T) {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "x", Kind: joblog.Numeric},
		{Name: "c", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		var xv, cv joblog.Value
		if rng.Float64() < 0.3 {
			xv = joblog.None()
		} else {
			xv = joblog.Num(rng.Float64())
		}
		if rng.Float64() < 0.3 {
			cv = joblog.None()
		} else {
			cv = joblog.Str("v")
		}
		log.MustAppend(&joblog.Record{ID: "r", Values: []joblog.Value{
			xv, cv, joblog.Num(rng.Float64()),
		}})
	}
	if _, err := RegressionWeights(log, "duration", Config{K: 5, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []float64 {
		rng := rand.New(rand.NewSource(7))
		log := regressionLog(100, rng)
		w, err := RegressionWeights(log, "duration", Config{K: 5, Rand: rand.New(rand.NewSource(9))})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSampleSizeM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	log := regressionLog(100, rng)
	w, err := RegressionWeights(log, "duration", Config{K: 5, M: 20, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if w[log.Schema.MustIndex("important")] <= w[log.Schema.MustIndex("irrelevant")] {
		t.Error("subsampled run should still rank the signal first")
	}
}

// mixedLog builds a log with numeric and nominal attributes, missing
// cells, and deliberately duplicated rows so neighbour distances tie —
// the case the bounded top-K selection must break exactly like the full
// sort it replaced.
func mixedLog(n int, rng *rand.Rand) *joblog.Log {
	schema := joblog.NewSchema([]joblog.Field{
		{Name: "x", Kind: joblog.Numeric},
		{Name: "y", Kind: joblog.Numeric},
		{Name: "c", Kind: joblog.Nominal},
		{Name: "duration", Kind: joblog.Numeric},
	})
	log := joblog.NewLog(schema)
	cats := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		var xv, yv, cv joblog.Value
		// Coarse quantisation forces many exact distance ties.
		xv = joblog.Num(float64(rng.Intn(3)))
		if rng.Float64() < 0.2 {
			yv = joblog.None()
		} else {
			yv = joblog.Num(float64(rng.Intn(2)))
		}
		if rng.Float64() < 0.2 {
			cv = joblog.None()
		} else {
			cv = joblog.Str(cats[rng.Intn(len(cats))])
		}
		log.MustAppend(&joblog.Record{ID: "r", Values: []joblog.Value{
			xv, yv, cv, joblog.Num(float64(rng.Intn(4))),
		}})
	}
	return log
}

// refNearest is the pre-blocked implementation: full sort by (distance,
// index), truncate to k.
func refNearest(log *joblog.Log, stats []attrStats, i, targetIdx, k int) []int {
	type cand struct {
		idx int
		d   float64
	}
	var cs []cand
	for j := 0; j < log.Len(); j++ {
		if j == i {
			continue
		}
		cs = append(cs, cand{j, distance(stats, i, j, targetIdx)})
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].d != cs[b].d {
			return cs[a].d < cs[b].d
		}
		return cs[a].idx < cs[b].idx
	})
	if len(cs) > k {
		cs = cs[:k]
	}
	out := make([]int, len(cs))
	for x, c := range cs {
		out[x] = c.idx
	}
	return out
}

func TestBlockedNearestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{3, 17, 64, 200} {
		log := mixedLog(n, rng)
		stats := computeStats(log)
		for _, k := range []int{1, 3, 10, n + 5} {
			for i := 0; i < n; i += 1 + n/7 {
				got := nearest(log, stats, i, 3, k)
				want := refNearest(log, stats, i, 3, k)
				if !sameInts(got, want) {
					t.Fatalf("n=%d k=%d i=%d: nearest = %v, full sort = %v", n, k, i, got, want)
				}
			}
		}
	}
}

func sameInts(a, b []int) bool {
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

// TestBlockDistancesMatchPerPair pins the attribute-major tile kernel
// bit-for-bit against the per-pair sum (same operands, same order).
func TestBlockDistancesMatchPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	log := mixedLog(150, rng)
	stats := computeStats(log)
	dst := make([]float64, distBlock)
	for _, span := range [][2]int{{0, 150}, {7, 70}, {149, 150}} {
		lo, hi := span[0], span[1]
		blockDistances(stats, 5, lo, hi, 3, dst)
		for j := lo; j < hi; j++ {
			if want := distance(stats, 5, j, 3); dst[j-lo] != want {
				t.Fatalf("blockDistances[%d] = %v, distance = %v", j, dst[j-lo], want)
			}
		}
	}
}

// TestComputeStatsMemoized verifies the attrStats memo: same slice back
// while the record count is unchanged, fresh stats (new frequencies)
// after an append — the joblog.Columns count-invalidation scheme.
func TestComputeStatsMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	log := mixedLog(40, rng)
	a := computeStats(log)
	b := computeStats(log)
	if &a[0] != &b[0] {
		t.Fatal("computeStats rebuilt despite unchanged record count")
	}
	log.MustAppend(log.Records[0].Clone())
	c := computeStats(log)
	if &a[0] == &c[0] {
		t.Fatal("computeStats not invalidated by append")
	}
	if got := len(c); got != log.Schema.Len() {
		t.Fatalf("stats len = %d", got)
	}
	// The rebuilt stats must reflect the grown log: frequencies are
	// normalised over the new count, so recompute once more and compare
	// against a from-scratch build.
	fresh := buildStats(log, log.Columns())
	for i := range fresh {
		if c[i].sqSum != fresh[i].sqSum || c[i].min != fresh[i].min || c[i].max != fresh[i].max {
			t.Fatalf("memoized stats[%d] differ from fresh build", i)
		}
	}
}
