package core

// Tests for what an enumeration round shares between queries and between
// its own stages: the view's memoized blocking groups stay as built
// whatever a plan cuts out of them, a related set sampled chunk by chunk
// is the sample of its concatenation, and nothing an explanation returns
// lives in a pooled buffer.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"perfxplain/internal/collect"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// zoneSkewedLog builds a log blocked by `script` into nGroups groups of
// skewed sizes, where `cpus` is constant within each group (cpus =
// group % 10) — so a `cpus > 8.5` conjunct's row seek empties every group
// but the 9-cpu ones and leaves those whole — and duration = x.
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

// memoQueries are three despite clauses over zoneSkewedLog that block on
// the same column — one memoized plan — and cut it three ways: not at
// all; by whole groups (cpus is constant per group, so the seeker empties
// some groups and passes the others whole, aliasing the memoized lists);
// and by row seeks inside every group.
func memoQueries() map[string]*pxql.Query {
	with := func(extra ...pxql.Atom) *pxql.Query {
		q := blockedQuery()
		q.Despite = append(q.Despite, extra...)
		return q
	}
	return map[string]*pxql.Query{
		"blocked": with(),
		"zone":    with(pxql.Atom{Feature: "cpus", Op: pxql.OpGt, Value: joblog.Num(8.5)}),
		"seek":    with(pxql.Atom{Feature: "x", Op: pxql.OpGt, Value: joblog.Num(700)}),
	}
}

// TestBlockGroupsMemoReadOnly plans the seek, zone and blocked templates
// on one view, in every order and then concurrently, and compares each
// plan with the same plan over a fresh view that has memoized nothing: a
// cut that wrote into the shared groups would corrupt the next plan.
func TestBlockGroupsMemoReadOnly(t *testing.T) {
	build := func() *joblog.Log { return zoneSkewedLog(600, 12, rand.New(rand.NewSource(8))) }
	queries := memoQueries()
	plan := func(log *joblog.Log, name string, maxPairs int) []EnumSpec {
		q := queries[name]
		return PlanEnumShards(log, features.Level3, q, q.Despite, maxPairs, 5, 3)
	}
	want := map[string][]EnumSpec{}
	for name := range queries {
		for _, maxPairs := range []int{0, 2000} {
			want[fmt.Sprint(name, maxPairs)] = plan(build(), name, maxPairs)
		}
	}
	if a, b := len(want["blocked0"][0].Groups), len(want["zone0"][0].Groups); b == 0 || b >= a {
		t.Fatalf("zone plan keeps %d of %d groups in its first spec; the fixture cuts nothing", b, a)
	}

	shared := build()
	check := func(name string, maxPairs int) {
		if got := plan(shared, name, maxPairs); !reflect.DeepEqual(got, want[fmt.Sprint(name, maxPairs)]) {
			t.Errorf("%s plan (maxPairs %d) over the shared view differs from the plan over a fresh view", name, maxPairs)
		}
	}
	for _, order := range [][]string{
		{"seek", "zone", "blocked"}, {"zone", "seek", "blocked"}, {"blocked", "seek", "zone"},
		{"seek", "blocked", "zone"}, {"zone", "blocked", "seek"}, {"blocked", "zone", "seek"},
	} {
		for _, name := range order {
			check(name, 0)
			check(name, 2000)
		}
	}
	// The three clauses did share one plan: the memo holds the groups.
	g1 := candidateGroups(shared, queries["seek"].Despite).groups
	g2 := candidateGroups(shared, queries["zone"].Despite).groups
	if len(g1) == 0 || &g1[0][0] != &g2[0][0] {
		t.Error("two clauses over one blocking column built their groups separately; nothing is memoized")
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"seek", "zone", "blocked"}
			for k := 0; k < 20; k++ {
				check(names[(w+k)%3], 2000*(k%2))
			}
		}(w)
	}
	wg.Wait()
}

// TestChunkedSampleMatchesFlat cuts one related set every way a round of
// specs could have returned it — all 2¹¹ compositions of 12 pairs, and a
// few with empty chunks, as trailing specs return — and requires the
// sampler to draw exactly the sample it draws from the uncut set, at a
// budget that thins, one that only rebalances and one that passes
// everything through.
func TestChunkedSampleMatchesFlat(t *testing.T) {
	log := syntheticLog(12, rand.New(rand.NewSource(2)))
	flat := &pairPlanes{}
	for i := 0; i < 12; i++ {
		flat.add(i, (i*5+1)%12, i%4 != 0)
	}
	for _, m := range []int{6, 12, 40, 0} {
		want := balancedSample(new(pairPlanes), chunked(t, flat, log.Len()), m, rand.New(rand.NewSource(4)))
		if m == 6 && (want.len() == 0 || want.len() == flat.len()) {
			t.Fatalf("a budget of 6 drew %d of 12 pairs; the fixture thins nothing", want.len())
		}
		var cutSets [][]int
		for mask := 0; mask < 1<<11; mask++ {
			var cuts []int
			for k := 0; k < 11; k++ {
				if mask>>k&1 == 1 {
					cuts = append(cuts, k+1)
				}
			}
			cutSets = append(cutSets, cuts)
		}
		cutSets = append(cutSets, []int{0}, []int{12}, []int{0, 0, 5, 5, 12, 12})
		for _, cuts := range cutSets {
			ps := chunked(t, flat, log.Len(), cuts...)
			if got := balancedSample(new(pairPlanes), ps, m, rand.New(rand.NewSource(4))); !reflect.DeepEqual(got, want) {
				t.Fatalf("m=%d cuts %v: sample %v, uncut %v", m, cuts, got, want)
			}
		}
	}
}

// amplifiedSweep is the small parameter sweep (32 jobs, the full 37-field
// schema) replicated k times with jittered durations: wide enough for a
// real pair matrix, and under blockedDespite a pair space that MaxPairs
// thins on the skip path, so every pool of the round is in play.
func amplifiedSweep(t testing.TB, k int) *joblog.Log {
	t.Helper()
	res, err := collect.SmallSweep(42).Collect()
	if err != nil {
		t.Fatal(err)
	}
	base := res.Jobs
	dur, _ := base.Schema.Index("duration")
	rng := rand.New(rand.NewSource(6))
	out := joblog.NewLog(base.Schema)
	for r := 0; r < k; r++ {
		for _, rec := range base.Records {
			c := rec.Clone()
			c.ID = fmt.Sprintf("%s-r%03d", rec.ID, r)
			if r > 0 {
				c.Values[dur].Num *= 0.7 + 0.6*rng.Float64()
			}
			out.MustAppend(c)
		}
	}
	return out
}

// sweepQuestions binds the blocked template to n pairs of interest of the
// amplified sweep, all in replica 0.
func sweepQuestions(t testing.TB, log *joblog.Log, n int) []*pxql.Query {
	t.Helper()
	tmpl, err := pxql.Parse("DESPITE numinstances_issame = T AND pigscript_issame = T\n" +
		"OBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExplainer(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var out []*pxql.Query
	for i := 0; i < 32 && len(out) < n; i++ {
		for j := 0; j < 32 && len(out) < n; j++ {
			q := *tmpl
			q.ID1, q.ID2 = log.ID(i), log.ID(j)
			if _, _, err := e.bind(&q); i != j && err == nil {
				out = append(out, &q)
			}
		}
	}
	if len(out) < n {
		t.Fatalf("the sweep binds %d pairs of interest, want %d", len(out), n)
	}
	return out
}

// TestPooledBuffersDoNotAlias runs a second, different explanation after
// a first and requires the first to still print exactly what it printed
// when it was returned: result planes and pair matrices are recycled
// between explanations, and nothing reachable from an Explanation — or
// from RelatedPairsP's pairs — may live in one.
func TestPooledBuffersDoNotAlias(t *testing.T) {
	log := amplifiedSweep(t, 40)
	qs := sweepQuestions(t, log, 2)
	const maxPairs = 40000
	requireRegime(t, log, qs[0].Despite, maxPairs, true, true)
	explain := func(q *pxql.Query, seed int64) *Explanation {
		e, err := NewExplainer(log, Config{Seed: seed, MaxPairs: maxPairs})
		if err != nil {
			t.Fatal(err)
		}
		x, err := e.ExplainWithDespite(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	first := explain(qs[0], 1)
	pairs := RelatedPairsP(log, features.Level3, qs[0], 5000, 1, 0)
	snapshot, pairsSnapshot := fmt.Sprintf("%#v", *first), fmt.Sprintf("%v", pairs)
	if len(first.Because) == 0 || len(first.Atoms) == 0 || len(pairs) == 0 {
		t.Fatalf("first explanation %v with %d related pairs; the fixture explains nothing", first, len(pairs))
	}
	for seed := int64(2); seed < 6; seed++ {
		explain(qs[1], seed)
		RelatedPairsP(log, features.Level3, qs[1], 5000, seed, 0)
	}
	if got := fmt.Sprintf("%#v", *first); got != snapshot {
		t.Errorf("the first explanation changed while later ones ran:\n was %s\n now %s", snapshot, got)
	}
	if got := fmt.Sprintf("%v", pairs); got != pairsSnapshot {
		t.Error("the first related-pair list changed while later rounds ran")
	}
	if again := explain(qs[0], 1); !reflect.DeepEqual(again, first) {
		t.Errorf("the first question answered again, over recycled buffers: %v, first %v", again, first)
	}
}

// TestExplainSteadyStateBytes bounds what a warm explanation allocates:
// on a thinned round the walks' result planes and the pair matrix come
// from pools, so what is left is the sample, the bitmaps and the plan —
// 1.6 MB here, against 8.9 MB when every round allocated its planes and
// its matrix and copied the former.
func TestExplainSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	log := amplifiedSweep(t, 100)
	qs := sweepQuestions(t, log, 4)
	requireRegime(t, log, qs[0].Despite, DefaultConfig().MaxPairs, true, true)
	explain := func(i int) {
		e, err := NewExplainer(log, Config{Seed: int64(i), Exec: Exec{Parallelism: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Explain(context.Background(), qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		explain(i)
	}
	const rounds = 12
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		explain(4 + i)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / rounds / 1e6; per > 3.0 {
		t.Errorf("a warm explanation allocates %.2f MB; pooled rounds stay under 3", per)
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers and pools let go
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResidentBytesPerRow bounds what a resident log costs against the
// floor planes set: 8 bytes a numeric cell, 4 a nominal one. A store
// that has loaded and sealed a CSV keeps, per row, at most 1.6 floors —
// planes, missing bits, the ID and nothing boxed. A snapshot views the
// store's planes instead of copying them, so with one taken and a
// question answered over it the reading is about 2.05: indexes, block
// groups, the ID map and the round's pooled buffers ride on top of the
// one copy of the planes; the bound is 2.35. (When every snapshot
// stitched a copy of its own, that point read 3.1; with a 32-byte Value
// per cell beside the planes the first two points read 5.4 and 6.7.)
//
// The last leg doubles the log in eight batches and keeps each batch's
// watermark's snapshot alive, each with one question answered over it:
// beyond what those eight questions themselves leave resident, a row
// may cost at most 0.3 floors more than at the one-snapshot point. The
// first snapshot is let go before the batches: the first append moves
// the arena out of the arrays Ingest copied the log into, and a snapshot
// taken before that keeps them alive (another half floor per row of the
// doubled log). Batches that double the log end on a full arena, where
// one just doubled would carry a floor of spare capacity.
func TestResidentBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the log's")
	}
	const reps, batches = 400, 8
	var csv bytes.Buffer
	var more [batches]bytes.Buffer
	floor := 0
	func() { // the construction form dies with this frame
		src := amplifiedSweep(t, 2*reps)
		n := src.Len() / 2
		if err := (&joblog.Log{Schema: src.Schema, Records: src.Records[:n]}).WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		for b := range more {
			part := &joblog.Log{Schema: src.Schema, Records: src.Records[n+b*n/batches : n+(b+1)*n/batches]}
			if err := part.WriteCSV(&more[b]); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range src.Schema.Fields() {
			floor += 4
			if f.Kind == joblog.Numeric {
				floor += 4
			}
		}
	}()
	base := liveHeap()
	log, err := joblog.ReadCSVPlanes(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st := joblog.NewStore(log.Schema, 0)
	if err := st.Ingest(log); err != nil {
		t.Fatal(err)
	}
	st.Seal()
	log = nil
	resident := func() int64 { return int64(liveHeap() - base) }
	perRow := func(bytes int64) float64 { return float64(bytes) / float64(st.Len()) / float64(floor) }
	if got := perRow(resident()); got > 1.6 {
		t.Errorf("a sealed store keeps %.2f plane floors (%d B) per row, want at most 1.6", got, floor)
	}

	explain := func(snap *joblog.Log) {
		e, err := NewExplainer(snap, Config{Seed: 1, Exec: Exec{Parallelism: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Explain(context.Background(), sweepQuestions(t, snap, 1)[0]); err != nil {
			t.Fatal(err)
		}
	}
	explain(st.Snapshot().Log())
	one := perRow(resident())
	if one > 2.35 {
		t.Errorf("a store, its snapshot and one explanation keep %.2f plane floors per row, want at most 2.35", one)
	}

	var snaps []*joblog.Log
	var asked int64
	for b := range more {
		l, err := joblog.ReadCSVPlanes(bytes.NewReader(more[b].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Ingest(l); err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot().Log()
		before := resident()
		explain(snap)
		asked += resident() - before
		snaps = append(snaps, snap)
	}
	if got := perRow(resident() - asked); got > one+0.3 {
		t.Errorf("with %d watermarks' snapshots alive a row keeps %.2f plane floors beyond what their questions hold, want at most %.2f (one snapshot's %.2f + 0.3)",
			len(snaps), got, one+0.3, one)
	}
	runtime.KeepAlive(snaps)
	runtime.KeepAlive(csv)
	runtime.KeepAlive(&more)
}

// BenchmarkPlanEnumShards times one plan over a warm view — the
// blocking groups memoized, so what is left is the per-query part: keepP,
// pruning, seeking and the cut into specs.
func BenchmarkPlanEnumShards(b *testing.B) {
	log := zoneSkewedLog(20000, 12, rand.New(rand.NewSource(8)))
	for name, q := range memoQueries() {
		b.Run(name, func(b *testing.B) {
			PlanEnumShards(log, features.Level3, q, q.Despite, 200000, 16, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PlanEnumShards(log, features.Level3, q, q.Despite, 200000, 16, uint64(i))
			}
		})
	}
}
