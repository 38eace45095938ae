package core

// Tests for the skip thinning path of walkTiles (skip.go): the table and
// its inversion are checked against a math/big reference, the stream is
// pinned by a fixed vector that holds on every architecture, the kept
// positions obey the walk's order contract, their count and spacing
// follow the Bernoulli(keepP) law they replace, every edge of room and
// keepP terminates, and the crossover constant selects the dense loop
// exactly where the contract says.

import (
	"go/parser"
	"go/token"
	"math"
	"math/big"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// skipTableFor builds the inversion table of one keep probability.
func skipTableFor(keepP float64) *skipTable {
	tab := new(skipTable)
	tab.build(skipQuantum(keepP))
	return tab
}

// skipRow collects the inner positions one outer record's stream keeps
// over room = n−1 inner positions — the skip branch of walkTiles for a
// single outer member, without the position→member mapping.
func skipRow(seed uint64, i, room int, keepP float64) []int {
	st := newSkipStream(seed, i, skipTableFor(keepP))
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

// TestSkipSamplerImports keeps floating-point library code off the
// sample path for good: the sampler's file may import math/bits and
// internal/stats and nothing else.
func TestSkipSamplerImports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "skip.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"math/bits": true, "perfxplain/internal/stats": true}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
			t.Errorf("skip.go imports %s; the integer sampler may import only math/bits and internal/stats", path)
		}
	}
}

// TestSkipTableMatchesBig rebuilds the quantum, the table and the guide
// in arbitrary precision and inverts 10⁵ uniforms by binary search over
// the reference table: the fixed-point table is exactly the recurrence
// it documents, and the guide-then-scan inversion is exactly
// #{g >= 1 : U < T[g]}.
func TestSkipTableMatchesBig(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, keepP := range []float64{1.0 / 9, 0.00274, 1e-6, 0x1p-53} {
		tab := skipTableFor(keepP)

		// Q = ⌊2⁶⁴·(1−keepP)⌋ with 1−keepP exact.
		q := new(big.Float).SetPrec(2048).SetFloat64(keepP)
		q.Sub(big.NewFloat(1).SetPrec(2048), q)
		q.Mul(q, new(big.Float).SetPrec(2048).SetInt(two64))
		wantQ, _ := q.Int(nil)
		if !wantQ.IsUint64() || wantQ.Uint64() != tab.q {
			t.Fatalf("keepP=%g: Q = %#x, want %s", keepP, tab.q, wantQ.Text(16))
		}

		ref := make([]*big.Int, skipSpan+1)
		ref[1] = wantQ
		for g := 2; g <= skipSpan; g++ {
			ref[g] = new(big.Int).Mul(ref[g-1], wantQ)
			ref[g].Rsh(ref[g], 64)
		}
		for g := 1; g <= skipSpan; g++ {
			if ref[g].Uint64() != tab.t[g] {
				t.Fatalf("keepP=%g: T[%d] = %#x, want %s", keepP, g, tab.t[g], ref[g].Text(16))
			}
		}
		// gapOf counts the reference entries above u; T is non-increasing.
		gapOf := func(u *big.Int) int {
			return sort.Search(skipSpan, func(k int) bool { return ref[k+1].Cmp(u) <= 0 })
		}
		for b := range tab.guide {
			top := new(big.Int).Lsh(big.NewInt(int64(b+1)), skipGuideShift)
			top.Sub(top, big.NewInt(1)) // the bucket's largest U
			if want := gapOf(top); int(tab.guide[b]) != want {
				t.Fatalf("keepP=%g: guide[%d] = %d, want %d", keepP, b, tab.guide[b], want)
			}
		}
		// Uniforms over [T[skipSpan], 2⁶⁴), the range invert is defined on.
		floor := tab.t[skipSpan]
		span := -floor // 2⁶⁴ − floor; floor > 0 at every keepP here but 1/9
		for k := uint64(0); k < 100000; k++ {
			u := stats.SplitMix64(k)
			if span != 0 {
				u = floor + u%span
			}
			if got, want := tab.invert(u), gapOf(new(big.Int).SetUint64(u)); got != want {
				t.Fatalf("keepP=%g: invert(%#x) = %d, want %d", keepP, u, got, want)
			}
		}
	}
}

// TestSkipStreamPinned fails loudly on any drift in the stream keying,
// the quantisation or the table: a fixed (seed, row, n, keepP) keeps
// exactly these positions first — on every architecture, the sampler
// being integer-only. The second vector's gaps run past skipSpan, so it
// pins the redraw too. Re-pinning either changes every thinned sample —
// bump shard.Version with it.
func TestSkipStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		room  int
		keepP float64
		want  []int
	}{
		{99999, 0.01, []int{2, 29, 135, 238, 406, 533, 574, 651, 767, 1006, 1042, 1268, 1517, 1585, 1659, 1712}},
		{9999999, 1e-4, []int{243, 16306, 16400, 29242, 37129, 52455, 54301, 82845, 94607, 97626, 162166, 163164}},
	} {
		got := skipRow(0x9e3779b97f4a7c15, 12345, tc.room, tc.keepP)
		if len(got) < len(tc.want) || !reflect.DeepEqual(got[:len(tc.want)], tc.want) {
			t.Errorf("keepP=%g: first kept positions %v, want %v", tc.keepP, got[:min(len(got), len(tc.want))], tc.want)
		}
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
	tab := skipTableFor(keepP)
	for i := 0; i < rows; i++ {
		st := newSkipStream(99, i, tab)
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

// TestSkipStreamEdges pins termination and the quantisation at every
// edge: no room and one position of room, a keepP at and far below the
// float grid's resolution near 1 (gaps far beyond any group), keepP just
// under the crossover, the smallest group and an empty row; and NaN and
// non-positive probabilities never reach the sampler at all.
func TestSkipStreamEdges(t *testing.T) {
	for _, tc := range []struct {
		keepP float64
		q     uint64
	}{
		{0x1p-3, 7 << 61}, {0x1p-53, ^uint64(0) - 1<<11 + 1}, {0x1p-64, ^uint64(0)},
		{1e-300, ^uint64(0)}, {5e-324, ^uint64(0)},
		{1e-12, 0xfffffffffee68667}, // ⌈2⁶⁴·1e-12⌉ = 18446745 — one past the floor
	} {
		if q := skipQuantum(tc.keepP); q != tc.q {
			t.Errorf("skipQuantum(%g) = %#x, want %#x", tc.keepP, q, tc.q)
		}
	}
	for _, keepP := range []float64{math.Nextafter(skipKeepP, 0), 0.01, 0x1p-53, 1e-300} {
		tab := skipTableFor(keepP)
		zeros := 0
		for i := 0; i < 2000; i++ {
			st := newSkipStream(3, i, tab)
			if gap, ok := st.next(0); ok {
				t.Fatalf("keepP=%g row %d: gap %d fit into no room", keepP, i, gap)
			}
			if gap, ok := st.next(1); ok && gap != 0 {
				t.Fatalf("keepP=%g row %d: gap %d fit into one position", keepP, i, gap)
			} else if ok {
				zeros++
			}
			// A row far longer than any gap the table resolves in one draw
			// still ends, by redrawing at most room/skipSpan times.
			st = newSkipStream(3, i, tab)
			for q, room := 0, 1<<14; ; q++ {
				gap, ok := st.next(room - q)
				if !ok {
					break
				}
				if q += gap; q >= room {
					t.Fatalf("keepP=%g row %d: kept position %d of %d", keepP, i, q, room)
				}
			}
		}
		if (keepP > 0.001) != (zeros > 0) {
			t.Errorf("keepP=%g: %d of 2000 rows kept their only position", keepP, zeros)
		}
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

// BenchmarkSkipStream reports the sampler's cost per draw (one op is one
// draw) at the two ends
// of its regime: big_blocked's keepP, where one draw in twenty redraws,
// and just under the crossover, where none does.
func BenchmarkSkipStream(b *testing.B) {
	for _, keepP := range []float64{0.00274, 1.0 / 9} {
		b.Run(strconv.FormatFloat(keepP, 'g', 3, 64), func(b *testing.B) {
			tab := skipTableFor(keepP)
			const perRow = 256
			sink := 0
			b.ResetTimer()
			for i := 0; i < b.N; i += perRow {
				st := newSkipStream(17, i, tab)
				for k := 0; k < perRow && i+k < b.N; k++ {
					gap, _ := st.next(1 << 40)
					sink += gap
				}
			}
			skipSink = sink
		})
	}
}

var skipSink int
