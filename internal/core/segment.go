package core

// The walk planners — the only producers of walk units — and the
// slices a Runner ships. Every log has a segment decomposition
// (joblog.Log.SegmentViews): a joblog.Store snapshot's sealed immutable
// segments plus its mutable tail, or a flat log's contiguous runs of
// joblog.DefaultSealThreshold records. A Runner receives it, at the
// moment a walk ships, as one content-addressed LogSlice per segment
// (LogSlices), concatenating in order to the whole log; the specs of the
// batch carry only what tells them apart — the blocking groups and outer
// ranges each owns. A segment keeps its hash for as long as its records
// do, so a frame at the next watermark names the sealed segments its
// worker already holds by reference, and only the tail slice (whose hash
// changes with every append) re-ships. Nothing builds the slices until
// a walk actually ships: local execution and questions whose sample is
// drawn by rank wire and hash nothing.
//
// Byte-identity: a spec addresses records by their index in the log and
// carries blocking groups, outer ranges, the keep probability, the seed
// and the predicates; a worker concatenates the segment slices into one
// whole log (joblog.Concat) and runs the same kernel the coordinator
// runs over its resident log, so the merged output is the same at every
// spec count, executor and seal boundary — pinned against an independent
// oracle by the planner and segment equivalence suites.

import (
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// LogSlices returns the log's segments as the content-addressed slices
// a Runner ships, in record order. The wire forms and hashes are the
// log's memoized SegmentViews, built on the first call.
func LogSlices(log *joblog.Log) []LogSlice {
	views := log.SegmentViews()
	out := make([]LogSlice, len(views))
	for i, v := range views {
		out[i] = LogSlice{Hash: v.Hash, Log: v.Records}
	}
	return out
}

// cutGroupShards cuts the flattened (group, outer-member) sequence of a
// blocked pair space into nShards proportional, contiguous slices — the
// single definition of how both the enumeration and the evaluation
// planner partition a quadratic pair walk. Shard boundaries may fall
// inside a blocking group (it then appears in several cuts with disjoint
// outer ranges); when nShards exceeds the outer-member count, trailing
// cuts are empty. Cuts of one group share its member list: specs are
// read-only, and the wire copies anyway.
func cutGroupShards(groups [][]int, nShards int) [][]EnumGroup {
	if nShards < 1 {
		nShards = 1
	}
	units := 0
	for _, g := range groups {
		units += len(g)
	}
	cuts := make([][]EnumGroup, nShards)
	for s := 0; s < nShards; s++ {
		lo, hi := cutPoint(units, nShards, s), cutPoint(units, nShards, s+1)
		off := 0
		for _, g := range groups {
			gLo, gHi := lo-off, hi-off
			off += len(g)
			if gLo < 0 {
				gLo = 0
			}
			if gHi > len(g) {
				gHi = len(g)
			}
			if gLo >= gHi {
				continue
			}
			cuts[s] = append(cuts[s], EnumGroup{Members: g, Lo: gLo, Hi: gHi})
		}
	}
	return cuts
}

// PlanEnumShards partitions the blocked pair space of (log, despite)
// into nShards self-contained enumeration specs. Concatenating spec
// results in spec order walks (group order, member order) exactly once,
// whatever nShards is; when it exceeds the outer-member count, trailing
// specs are empty (no groups) and execute to empty results.
//
// maxPairs caps the walk: a larger candidate pair space is thinned under
// one global keep probability (blockedGroups), which every spec carries.
//
// The plan is a pure function of (records, despite, query outcome
// clauses, maxPairs, nShards, seed): everything it reads — including the
// memoized columnar view backing blocking and row seeks — is derived
// deterministically from the record list, so rebuilding the log's caches
// never changes it.
func PlanEnumShards(log *joblog.Log, level features.Level, q *pxql.Query,
	despite pxql.Predicate, maxPairs, nShards int, seed uint64) []EnumSpec {

	groups, keepP, residual := blockedGroups(log, despite, maxPairs)
	cuts := cutGroupShards(groups, nShards)
	specs := make([]EnumSpec, len(cuts))
	// The specs share their clauses' wire forms, as cuts share member
	// lists: specs are read-only.
	des, obs, exp := residual.Spec(), q.Observed.Spec(), q.Expected.Spec()
	for s, cut := range cuts {
		specs[s] = EnumSpec{Groups: cut, KeepP: keepP, Seed: seed, Level: level,
			Despite: des, Observed: obs, Expected: exp}
	}
	return specs
}

// PlanEvalShards partitions the quadratic walk of EvaluateExplanation —
// the ordered pairs of the despite context des ∧ des' — into nShards
// self-contained evaluation specs, cut exactly like enumeration shards.
// Shipped, they travel with the same log slices, so repeated evaluations
// over one log (a harness scoring an explanation at several widths)
// reference the slices their workers hold instead of re-shipping them.
func PlanEvalShards(log *joblog.Log, level features.Level, q *pxql.Query,
	x *Explanation, maxPairs, nShards int, seed uint64) []EvalSpec {

	groups, keepP, residual := blockedGroups(log, q.Despite.And(x.Despite), maxPairs)
	cuts := cutGroupShards(groups, nShards)
	specs := make([]EvalSpec, len(cuts))
	des, obs, exp, bec := residual.Spec(), q.Observed.Spec(), q.Expected.Spec(), x.Because.Spec()
	for s, cut := range cuts {
		specs[s] = EvalSpec{Groups: cut, KeepP: keepP, Seed: seed, Level: level,
			Despite: des, Observed: obs, Expected: exp, Because: bec}
	}
	return specs
}
