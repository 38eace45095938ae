package core

// Tests for the geometric-skip thinning path of walkTiles (skipStream,
// geomGap): the gap arithmetic is pinned by a fixed vector, the kept
// positions obey the walk's order contract, their count and spacing
// follow the Bernoulli(keepP) law they replace, the float→int step is
// safe at every edge, and the crossover constant selects the dense loop
// exactly where the contract says.

import (
	"math"
	"perfxplain/internal/pxql"
	"reflect"
	"testing"

	"perfxplain/internal/stats"
)

// skipRow collects the inner positions one outer record's stream keeps
// over room = n−1 inner positions — the skip branch of walkTiles for a
// single outer member, without the position→member mapping.
func skipRow(seed uint64, i, room int, keepP float64) []int {
	st := newSkipStream(seed, i, 1/math.Log1p(-keepP))
	var kept []int
	for q := 0; ; q++ {
		gap, ok := st.next(room - q)
		if !ok {
			return kept
		}
		q += gap
		kept = append(kept, q)
	}
}

// walkedPairs runs walkTiles over one whole group and returns its pairs.
func walkedPairs(t *testing.T, members []int, n int, seed uint64, keepP float64) (as, bs []int) {
	t.Helper()
	groups := []EnumGroup{{Members: members, Lo: 0, Hi: len(members)}}
	if err := walkTiles(groups, n, seed, keepP, nil, func(_ *pxql.Tile, ai, bi []int) {
		as, bs = append(as, ai...), append(bs, bi...)
	}); err != nil {
		t.Fatal(err)
	}
	return as, bs
}

// TestSkipStreamPinned fails loudly on any drift in the stream keying or
// the gap arithmetic: a fixed (seed, row, n, keepP) keeps exactly these
// positions first. Re-pinning this vector changes every thinned sample —
// bump shard.Version with it.
func TestSkipStreamPinned(t *testing.T) {
	got := skipRow(0x9e3779b97f4a7c15, 12345, 99999, 0.01)
	want := []int{2, 29, 135, 238, 406, 533, 574, 651}
	if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
		t.Errorf("first kept positions %v, want %v", got[:min(len(got), len(want))], want)
	}
}

// TestSkipStreamPositions pins the order contract on the walk itself:
// per outer record the kept inner members are strictly ascending in
// member position, inside the group, and never the outer record.
func TestSkipStreamPositions(t *testing.T) {
	// Members in a scrambled record order, so position and index differ.
	const n = 400
	members := make([]int, n)
	pos := make(map[int]int, n)
	for p := range members {
		members[p] = (p*37 + 11) % n
		pos[members[p]] = p
	}
	as, bs := walkedPairs(t, members, n, 7, 0.05)
	if len(as) < n {
		t.Fatalf("walk kept %d pairs of %d; the fixture is toothless", len(as), n*(n-1))
	}
	lastOuter, lastInner := -1, -1
	for k := range as {
		po, pi := pos[as[k]], pos[bs[k]]
		if as[k] == bs[k] {
			t.Fatalf("pair %d pairs record %d with itself", k, as[k])
		}
		if po < lastOuter || (po == lastOuter && pi <= lastInner) {
			t.Fatalf("pair %d (positions %d, %d) is out of (outer, inner) order after (%d, %d)", k, po, pi, lastOuter, lastInner)
		}
		lastOuter, lastInner = po, pi
	}
}

// TestSkipStreamLaw checks the sampler against the distribution it must
// reproduce. Over 10⁴ outer rows of 500 inner positions the kept total is
// Binomial(5·10⁶, keepP): inside 5σ of keepP·rows·(n−1). And the first 20
// gaps of each row, drawn with room to spare so none is cut short by the
// row's end, follow P(gap = g) = keepP·(1−keepP)^g: every histogram bin
// inside 5σ of its binomial expectation.
func TestSkipStreamLaw(t *testing.T) {
	const rows, room, keepP = 10000, 500, 0.02
	total := 0
	for i := 0; i < rows; i++ {
		total += len(skipRow(99, i, room, keepP))
	}
	trials := float64(rows * room)
	mean, sigma := trials*keepP, math.Sqrt(trials*keepP*(1-keepP))
	if d := math.Abs(float64(total) - mean); d > 5*sigma {
		t.Errorf("kept %d of %d positions, want %.0f ± %.0f (5σ)", total, rows*room, mean, 5*sigma)
	}

	const perRow = 20
	hist := make([]int, 60)
	for i := 0; i < rows; i++ {
		st := newSkipStream(99, i, 1/math.Log1p(-keepP))
		for k := 0; k < perRow; k++ {
			gap, ok := st.next(1 << 40)
			if !ok {
				t.Fatalf("row %d: gap %d did not fit 2^40 positions", i, k)
			}
			if gap < len(hist) {
				hist[gap]++
			}
		}
	}
	draws := float64(rows * perRow)
	for g, c := range hist {
		p := keepP * math.Pow(1-keepP, float64(g))
		want, sd := draws*p, math.Sqrt(draws*p*(1-p))
		if d := math.Abs(float64(c) - want); d > 5*sd {
			t.Errorf("gap %d drawn %d times of %.0f, want %.0f ± %.0f (5σ)", g, c, draws, want, 5*sd)
		}
	}
}

// TestSkipStreamEdges pins termination and the float→int guard: u = 0
// (an infinite gap), a vanishing keepP (gaps far beyond any int), keepP
// just under the crossover, the smallest group and an empty row all end
// without converting an out-of-range float.
func TestSkipStreamEdges(t *testing.T) {
	inv := func(p float64) float64 { return 1 / math.Log1p(-p) }
	if gap, ok := geomGap(0, inv(0.01), 1<<40); ok {
		t.Errorf("u = 0 produced gap %d; want the row to end", gap)
	}
	if gap, ok := geomGap(0.5, inv(1e-12), 1<<40); !ok || gap != 693147180559 {
		t.Errorf("keepP = 1e-12, u = 0.5: gap %d ok %v; want ⌊ln 2 · 1e12⌋", gap, ok)
	}
	if gap, ok := geomGap(0.5, inv(1e-300), math.MaxInt); ok {
		t.Errorf("keepP = 1e-300 produced gap %d; want the row to end", gap)
	}
	if gap, ok := geomGap(0.5, inv(5e-324), math.MaxInt); ok {
		t.Errorf("subnormal keepP (infinite 1/ln) produced gap %d; want the row to end", gap)
	}
	if gap, ok := geomGap(math.NaN(), inv(0.01), 10); ok {
		t.Errorf("NaN uniform produced gap %d", gap)
	}
	if gap, ok := geomGap(math.Nextafter(1, 0), inv(0.01), 1); !ok || gap != 0 {
		t.Errorf("u just under 1: gap %d ok %v; want 0", gap, ok)
	}
	if _, ok := geomGap(0.9, inv(0.01), 0); ok {
		t.Error("a gap fit into no room")
	}
	under := math.Nextafter(skipKeepP, 0)
	if !skipSampled(under) || skipSampled(skipKeepP) || skipSampled(0) || skipSampled(-1) || skipSampled(math.NaN()) {
		t.Error("skipSampled must hold exactly on (0, skipKeepP)")
	}
	for _, keepP := range []float64{1e-12, 1e-300, 0.01, under} {
		for _, n := range []int{1, 2, 3} {
			members := []int{0, 1, 2}[:n]
			as, bs := walkedPairs(t, members, 3, 5, keepP)
			if len(as) > n*(n-1) {
				t.Errorf("keepP=%g n=%d: %d pairs from a %d-pair space", keepP, n, len(as), n*(n-1))
			}
			for k := range as {
				if as[k] == bs[k] {
					t.Errorf("keepP=%g n=%d: self pair %d", keepP, n, as[k])
				}
			}
		}
	}
	// n = 2 at a probability high enough to see both outcomes: each
	// outer row keeps its one inner position or nothing.
	both, none := 0, 0
	for seed := uint64(0); seed < 400; seed++ {
		switch as, _ := walkedPairs(t, []int{0, 1}, 2, seed, under); len(as) {
		case 0:
			none++
		case 2:
			both++
		}
	}
	if both == 0 || none == 0 {
		t.Errorf("n = 2 over 400 seeds: %d walks kept both pairs, %d none; want some of each", both, none)
	}
}

// TestSkipStreamCrossover pins which sampler decides a pair on each side
// of the constant: at keepP = skipKeepP exactly the walk is the dense
// keepPair loop — a pure function of (seed, i, j) — and one ulp below it
// is the per-row skip stream.
func TestSkipStreamCrossover(t *testing.T) {
	const n = 120
	members := make([]int, n)
	for p := range members {
		members[p] = n - 1 - p // positions run against record order
	}
	const seed = 31

	var denseA, denseB []int
	for _, i := range members {
		for _, j := range members {
			if i != j && stats.KeepFloat(seed, uint64(i)<<32|uint64(uint32(j))) < skipKeepP {
				denseA, denseB = append(denseA, i), append(denseB, j)
			}
		}
	}
	as, bs := walkedPairs(t, members, n, seed, skipKeepP)
	if len(as) == 0 || !reflect.DeepEqual(as, denseA) || !reflect.DeepEqual(bs, denseB) {
		t.Errorf("keepP = skipKeepP: walk kept %d pairs, the keepPair loop %d; the constant itself must take the dense path", len(as), len(denseA))
	}

	under := math.Nextafter(skipKeepP, 0)
	var skipA, skipB []int
	for p, i := range members {
		for _, q := range skipRow(seed, i, n-1, under) {
			if q >= p {
				q++
			}
			skipA, skipB = append(skipA, i), append(skipB, members[q])
		}
	}
	as, bs = walkedPairs(t, members, n, seed, under)
	if len(as) == 0 || !reflect.DeepEqual(as, skipA) || !reflect.DeepEqual(bs, skipB) {
		t.Errorf("keepP just under skipKeepP: walk kept %d pairs, the per-row skip streams %d", len(as), len(skipA))
	}
	if reflect.DeepEqual(as, denseA) && reflect.DeepEqual(bs, denseB) {
		t.Error("both sides of the crossover kept the same pairs; the fixture cannot tell the samplers apart")
	}
}
