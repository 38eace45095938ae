package shard_test

// Store-snapshot equivalence through real worker pools: specs planned
// over a snapshot's layout — several sealed segments plus a tail — must
// reproduce serial local execution over the static flat log byte for
// byte on every transport, and — the point of sealing — appends must leave
// sealed segments warm in worker caches so only new slices re-ship.

import (
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// segmentedOver replays a log through a segment store and returns the
// snapshot's log plus its shard layout.
func segmentedOver(t *testing.T, log *joblog.Log, sealEvery int) (*joblog.Log, *core.SegmentLayout) {
	t.Helper()
	st := joblog.NewStore(log.Schema, sealEvery)
	for _, r := range log.Records {
		st.MustAppend(r)
	}
	snap := st.Snapshot()
	layout, err := core.NewSegmentLayout(snap.Segments())
	if err != nil {
		t.Fatal(err)
	}
	return snap.Log(), layout
}

// explainSegmented is explainOver in the default Bernoulli mode (under
// cfg's cap, see bernoulliCases) over a snapshot log, on runner's workers over its store's
// layout.
func explainSegmented(t *testing.T, log *joblog.Log, layout *core.SegmentLayout,
	q *pxql.Query, shards int, runner core.ShardRunner, cfg core.Config) string {
	t.Helper()
	return explainOver(t, log, q, core.Exec{Parallelism: 4, Shards: shards, Runner: runner, Layout: layout}, cfg)
}

// TestEquivalenceSegmentedInProcess pins that local execution over a
// store snapshot — whose resident columns are stitched from its sealed
// segments — matches the serial static-log run at several seal
// thresholds — including ones that split the dominant blocking group
// across segments — and spec counts.
func TestEquivalenceSegmentedInProcess(t *testing.T) {
	for _, c := range bernoulliCases(t) {
		for _, sealEvery := range []int{13, 40} {
			snapLog, _ := segmentedOver(t, c.log, sealEvery)
			for _, n := range []int{1, 2, 7} {
				got := explainOver(t, snapLog, c.q, core.Exec{Parallelism: 4, Shards: n}, c.cfg)
				if got != c.want {
					t.Errorf("segmented maxPairs=%d seal=%d shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s",
						c.cfg.MaxPairs, sealEvery, n, got, c.want)
				}
			}
		}
	}
}

// TestEquivalenceSegmentedSubprocess runs segmented specs through real
// subprocess workers over the gob pipe protocol.
func TestEquivalenceSegmentedSubprocess(t *testing.T) {
	pool := workerPool(t, 3)
	for _, c := range bernoulliCases(t) {
		snapLog, layout := segmentedOver(t, c.log, 13)
		for _, n := range []int{1, 2, 7} {
			got := explainSegmented(t, snapLog, layout, c.q, n, pool, c.cfg)
			if got != c.want {
				t.Errorf("segmented subprocess maxPairs=%d shards=%d diverges from serial:\n--- got ---\n%s--- want ---\n%s",
					c.cfg.MaxPairs, n, got, c.want)
			}
		}
	}
}

// TestEquivalenceSegmentedChanTransport exercises the full frame
// protocol (slice cache included) cold and warm: the second pass over
// the same pool must resolve the per-segment slices from worker caches.
func TestEquivalenceSegmentedChanTransport(t *testing.T) {
	cases := bernoulliCases(t)
	pool := chanPool(t, 3)
	for pass, label := range []string{"cold", "warm"} {
		for _, c := range cases {
			snapLog, layout := segmentedOver(t, c.log, 13)
			for _, n := range []int{1, 2, 7} {
				got := explainSegmented(t, snapLog, layout, c.q, n, pool, c.cfg)
				if got != c.want {
					t.Errorf("segmented chan maxPairs=%d shards=%d (%s) diverges:\n--- got ---\n%s--- want ---\n%s",
						c.cfg.MaxPairs, n, label, got, c.want)
				}
			}
		}
		if pass == 1 {
			if s := pool.Stats(); s.SliceHits == 0 {
				t.Errorf("warm segmented pass recorded no slice hits: %+v", s)
			}
		}
	}
}

// TestSegmentedWarmCacheAcrossAppends pins the tentpole property: after
// the store grows, sealed segments keep their hashes, so a re-query at
// the new watermark re-ships only the slices the append created — the
// retained segments hit worker caches.
func TestSegmentedWarmCacheAcrossAppends(t *testing.T) {
	full := equivLog(60)
	st := joblog.NewStore(full.Schema, 10)
	for _, r := range full.Records[:40] {
		st.MustAppend(r)
	}
	pool := chanPool(t, 1)

	explainAt := func(snap *joblog.Snapshot) {
		t.Helper()
		log := snap.Log()
		layout, err := core.NewSegmentLayout(snap.Segments())
		if err != nil {
			t.Fatal(err)
		}
		q := equivQuery(t, log)
		want := explainSerial(t, log, q)
		if got := explainSegmented(t, log, layout, q, 2, pool, core.Config{}); got != want {
			t.Fatalf("segmented explanation at watermark %d diverges:\n--- got ---\n%s--- want ---\n%s",
				log.Len(), got, want)
		}
	}

	snap1 := st.Snapshot()
	explainAt(snap1)
	s1 := pool.Stats()

	for _, r := range full.Records[40:] {
		st.MustAppend(r)
	}
	snap2 := st.Snapshot()

	// Every sealed segment of the first watermark survives in the second
	// with an identical hash — the invariant that keeps caches warm.
	hashes1, hashes2 := map[string]bool{}, map[string]bool{}
	for _, v := range snap2.Segments() {
		hashes2[v.Hash] = true
	}
	retained := 0
	for _, v := range snap1.Segments() {
		hashes1[v.Hash] = true
		if v.Sealed {
			if !hashes2[v.Hash] {
				t.Fatalf("sealed segment at %d lost its hash across appends", v.Start)
			}
			retained++
		}
	}
	if retained == 0 {
		t.Fatal("test log produced no sealed segments at the first watermark")
	}
	created := 0
	for h := range hashes2 {
		if !hashes1[h] {
			created++
		}
	}

	// The one worker holds every slice of the first watermark, so the
	// payloads the re-query ships (in a task frame or ahead of it in a
	// prefetch frame) are exactly the slices the append created; one
	// more would be a retained segment re-shipping.
	explainAt(snap2)
	s2 := pool.Stats()
	if got := (s2.SliceMisses - s1.SliceMisses) + (s2.PrefetchSent - s1.PrefetchSent); got != int64(created) {
		t.Errorf("re-query after append shipped %d payloads, want exactly the %d slices the append created", got, created)
	}
	if got := s2.SliceHits - s1.SliceHits; got < int64(retained) {
		t.Errorf("re-query after append hit %d cached slices, want at least the %d retained segments", got, retained)
	}

	// A repeat pass at the same watermark re-ships nothing: every slice
	// (segments and evaluation samples alike) is already worker-side.
	explainAt(snap2)
	s3 := pool.Stats()
	if s3.SliceMisses != s2.SliceMisses {
		t.Errorf("repeat pass at one watermark re-shipped %d payloads", s3.SliceMisses-s2.SliceMisses)
	}
	if s3.SliceHits <= s2.SliceHits {
		t.Errorf("repeat pass recorded no slice hits: %+v -> %+v", s2, s3)
	}
}

// TestFlatLogWarmCacheAcrossQueries pins what a flat log gains from
// carrying records as layout slices: its segments are content-addressed
// like a store's, so on a warm pool a second explanation over the same
// log ships no payload at all — every enumeration, materialization,
// scoring and evaluation frame references slices the worker holds.
func TestFlatLogWarmCacheAcrossQueries(t *testing.T) {
	log := equivLog(60)
	q := equivQuery(t, log)
	want := explainSerial(t, log, q)
	// One worker so the ledger is deterministic: every payload ships
	// exactly once, every later reference is a hit.
	pool := chanPool(t, 1)
	if got := explainWith(t, log, q, 4, pool); got != want {
		t.Fatalf("cold explanation diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	cold := pool.Stats()
	if got := explainWith(t, log, q, 4, pool); got != want {
		t.Fatalf("warm explanation diverges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	warm := pool.Stats()
	if d := warm.SliceMisses - cold.SliceMisses; d != 0 {
		t.Errorf("second explanation over the same flat log re-shipped %d payloads", d)
	}

	// The enumeration frames in particular: each of a round's specs
	// references every layout slice, and each reference is a hit.
	layout := core.FlatLayout(log)
	specs := core.PlanEnumShards(layout, log, features.Level3, q, q.Despite, 0, 4, 123)
	if _, err := pool.RunEnum(specs); err != nil {
		t.Fatal(err)
	}
	again := pool.Stats()
	if hits := again.SliceHits - warm.SliceHits; hits != int64(len(specs)*len(layout.Slices)) || again.SliceMisses != warm.SliceMisses {
		t.Errorf("warm enumeration round: %d hits, %d misses; want %d hits, 0 misses",
			hits, again.SliceMisses-warm.SliceMisses, len(specs)*len(layout.Slices))
	}
}
