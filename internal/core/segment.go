package core

// The walk planners — the only producers of walk units — and the segment
// layout a Runner's specs ship records by. Every log has a segment
// layout: a joblog.Store snapshot decomposes into its sealed immutable
// segments plus the mutable tail, a flat log into contiguous runs of
// joblog.DefaultSealThreshold records (joblog.Log.SegmentViews).
// SegmentLayout is that decomposition in planner terms — one
// content-addressed LogSlice per segment, concatenating in order to the
// whole log — and it is the only way specs carry records to workers:
// every spec of a plan references the same slices, and a spec differs
// from its siblings only in the blocking groups and outer ranges it
// owns. A segment keeps its hash for as long as its records do, so
// worker caches stay warm across queries and appends, and only the tail
// slice (whose hash changes with every append) re-ships. Specs the
// coordinator runs itself are planned over a nil layout and carry no
// slices at all.
//
// Byte-identity: a spec addresses records by their index in the log and
// carries blocking groups, outer ranges, the keep probability, the seed
// and the predicates; a worker concatenates the segment slices into one
// whole-log view and runs the same kernel the coordinator runs over its
// resident columns, so the merged output is the same at every spec
// count, executor and seal boundary — pinned against an independent
// oracle by the planner and segment equivalence suites.

import (
	"fmt"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// NewLogSliceHashed builds a LogSlice from a precomputed content hash —
// the segment store hashes each sealed segment once, the first time its
// views are asked for, and re-hashing it on every plan would throw that
// work away. hash must
// equal joblog.HashSlice(w).
func NewLogSliceHashed(hash string, w joblog.WireLog) LogSlice {
	return LogSlice{Hash: hash, Log: w}
}

// SegmentLayout is the shard-planner view of a log: its segments as
// content-addressed slices, in record order, covering the log's records
// exactly.
type SegmentLayout struct {
	// Slices holds one content-addressed slice per segment (sealed
	// segments first, then the tail), concatenating to the whole log.
	Slices []LogSlice
	total  int
}

// NewSegmentLayout builds a layout from a log's segment views — a
// snapshot's Segments or a flat log's SegmentViews — validating that
// the views tile the record space contiguously from 0.
func NewSegmentLayout(views []joblog.SegmentView) (*SegmentLayout, error) {
	ly := &SegmentLayout{Slices: make([]LogSlice, len(views))}
	for i, v := range views {
		if v.Start != ly.total {
			return nil, fmt.Errorf("core: segment %d starts at %d, want %d", i, v.Start, ly.total)
		}
		ly.Slices[i] = NewLogSliceHashed(v.Hash, v.Records)
		ly.total += v.Len()
	}
	return ly, nil
}

// FlatLayout is the layout of a log that is not a store snapshot: its
// own SegmentViews, which tile the record space by construction.
func FlatLayout(log *joblog.Log) *SegmentLayout {
	ly, err := NewSegmentLayout(log.SegmentViews())
	if err != nil {
		panic(err) // a bug in SegmentViews alone can produce this
	}
	return ly
}

// Total returns the number of records the layout covers. A nil layout
// covers none, so the coverage check every runner-backed entry point
// makes against its (non-empty) log also rejects a missing layout.
func (ly *SegmentLayout) Total() int {
	if ly == nil {
		return 0
	}
	return ly.total
}

// slices returns the layout's slices; a nil layout — the coordinator
// planning for itself — has none.
func (ly *SegmentLayout) slices() []LogSlice {
	if ly == nil {
		return nil
	}
	return ly.Slices
}

// CombineSlices concatenates decoded slices, in order, into one view —
// the worker-side assembly of a spec's whole-log form. The slices'
// planes are stitched, not rebuilt (joblog.Concat), and come out equal
// to the coordinator's own, plane for plane. With a single slice the
// decoded form is returned as-is.
func CombineSlices(datas []*SliceData) (*SliceData, error) {
	if len(datas) == 0 {
		return nil, fmt.Errorf("core: spec has no slices")
	}
	if len(datas) == 1 {
		return datas[0], nil
	}
	logs := make([]*joblog.Log, len(datas))
	for i, d := range datas {
		logs[i] = d.Log
	}
	log, err := joblog.Concat(logs)
	if err != nil {
		return nil, fmt.Errorf("core: segment slices: %w", err)
	}
	return &SliceData{Log: log, Cols: log.Columns()}, nil
}

// DecodeSlices decodes payload slices and combines them — the
// standalone executor path of an enumeration or evaluation spec (the
// shard runtimes resolve each slice through a cache first and combine
// the decoded forms themselves).
func DecodeSlices(slices []LogSlice) (*SliceData, error) {
	datas := make([]*SliceData, len(slices))
	for i := range slices {
		d, err := slices[i].Data()
		if err != nil {
			return nil, err
		}
		datas[i] = d
	}
	return CombineSlices(datas)
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
// into nShards self-contained enumeration specs over the log's layout
// (nil when the coordinator will run them itself). Concatenating spec
// results in spec order walks (group order, member order) exactly once,
// whatever nShards is; when it exceeds the outer-member count, trailing
// specs are empty (no groups) and execute to empty results.
//
// maxPairs caps the walk: a larger candidate pair space is thinned under
// one global keep probability (blockedGroups), which every spec carries.
//
// The plan is a pure function of (records, layout, despite, query
// outcome clauses, maxPairs, nShards, seed): everything it reads —
// including the memoized columnar view backing the zone-map group
// pruner — is derived deterministically from the record list, so
// rebuilding the log's caches never changes it.
func PlanEnumShards(layout *SegmentLayout, log *joblog.Log, level features.Level, q *pxql.Query,
	despite pxql.Predicate, maxPairs, nShards int, seed uint64) []EnumSpec {

	groups, keepP, residual := blockedGroups(log, despite, maxPairs)
	cuts := cutGroupShards(groups, nShards)
	specs := make([]EnumSpec, len(cuts))
	for s, cut := range cuts {
		specs[s] = EnumSpec{
			Slices:   layout.slices(),
			Groups:   cut,
			KeepP:    keepP,
			Seed:     seed,
			Level:    level,
			Despite:  residual.Spec(),
			Observed: q.Observed.Spec(),
			Expected: q.Expected.Spec(),
		}
	}
	return specs
}

// PlanEvalShards partitions the quadratic walk of EvaluateExplanation —
// the ordered pairs of the despite context des ∧ des' — into nShards
// self-contained evaluation specs, cut exactly like enumeration shards
// over the same layout slices: repeated evaluations over one log (a
// harness scoring an explanation at several widths) reference cached
// slices instead of re-shipping them.
func PlanEvalShards(layout *SegmentLayout, log *joblog.Log, level features.Level, q *pxql.Query,
	x *Explanation, maxPairs, nShards int, seed uint64) []EvalSpec {

	groups, keepP, residual := blockedGroups(log, q.Despite.And(x.Despite), maxPairs)
	cuts := cutGroupShards(groups, nShards)
	specs := make([]EvalSpec, len(cuts))
	for s, cut := range cuts {
		specs[s] = EvalSpec{
			Slices:   layout.slices(),
			Groups:   cut,
			KeepP:    keepP,
			Seed:     seed,
			Level:    level,
			Despite:  residual.Spec(),
			Observed: q.Observed.Spec(),
			Expected: q.Expected.Spec(),
			Because:  x.Because.Spec(),
		}
	}
	return specs
}
