package core

import (
	"context"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// LabeledPair is an ordered pair of log records related to a query
// (Definition 7), labelled by which of the query's outcome clauses it
// satisfied.
type LabeledPair struct {
	A, B *joblog.Record
	// IA and IB are A's and B's record indices in the source log, the
	// addresses columnar consumers evaluate pairs by.
	IA, IB int
	// Observed is true when the pair performed as observed (Definition 9),
	// false when it performed as expected (Definition 8).
	Observed bool
}

// RelatedPairsP enumerates the log's pairs related to the query under
// its despite clause — the construction both PerfXplain and the
// SimButDiff baseline train from. maxPairs caps the pair space (0 =
// unlimited); enumeration is deterministic in seed, and parallelism (<= 0
// means GOMAXPROCS) bounds the workers without changing the result.
func RelatedPairsP(log *joblog.Log, level features.Level, q *pxql.Query,
	maxPairs int, seed int64, parallelism int) []LabeledPair {

	ex := Exec{Parallelism: parallelism}
	ps, err := runEnumSpecs(context.Background(), ex, log, PlanEnumShards(nil, log, level, q, q.Despite,
		maxPairs, ex.shards(), stats.DeriveSeed(seed, "related-pairs")))
	if err != nil {
		// Uncancellable and local: only a planner or kernel bug (or a
		// level outside Level1..3) can fail here.
		panic(err)
	}
	defer ps.release()
	// A plane-backed log boxes a record per call: box each row once.
	recs := make([]*joblog.Record, log.Len())
	rec := func(i int) *joblog.Record {
		if recs[i] == nil {
			recs[i] = log.Record(i)
		}
		return recs[i]
	}
	out := make([]LabeledPair, 0, ps.len())
	for ci := range ps.chunks {
		c := &ps.chunks[ci]
		for i, a := range c.RefA {
			b := c.RefB[i]
			out = append(out, LabeledPair{
				A:        rec(a),
				B:        rec(b),
				IA:       a,
				IB:       b,
				Observed: c.Labels[i],
			})
		}
	}
	return out
}
