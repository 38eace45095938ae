package core

// Multi-process shard execution for the pair pipeline. The quadratic
// stages of explanation generation — pair enumeration, training-sample
// materialization, per-feature candidate scoring — and metric evaluation
// are cut into self-contained shard specs that carry everything a worker
// needs: content-addressed log slices, the predicates in wire form, and
// the splitmix counter ranges of the subsampling decision (the seed plus
// the record indices it keys on). Records travel one way only: as
// LogSlices. Enumeration and evaluation specs carry the log's segment
// layout — every segment slice, concatenating to the whole log, so group
// members are plain record indices (see segment.go); materialization and
// scoring specs carry the one slice of the training sample's records
// with the coordinator's intern table. A spec can be executed in this
// process (Run) or shipped to a worker — the gob protocol lives in
// internal/shard — and results merge in spec order, so the output is
// byte-identical to the direct walk at every shard count and in every
// execution mode.
//
// Layering: this package defines the specs, the planners (segment.go)
// and the executors; the ShardRunner interface below is the seam
// internal/shard plugs its in-process and worker runtimes into (core
// cannot import internal/shard — the worker runtime imports core to
// execute specs).

import (
	"context"
	"fmt"
	"sort"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// ShardRunner executes batches of planned shard specs and returns one
// result per spec, in spec order. Implementations may run specs in any
// order and on any mix of goroutines or worker processes; the specs and
// their results are designed so that only the batch's order — which the
// caller fixes — affects the merged output.
type ShardRunner interface {
	RunEnum(specs []EnumSpec) ([]EnumResult, error)
	RunMat(specs []MatSpec) ([]MatResult, error)
	RunScore(specs []ScoreSpec) ([]ScoreResult, error)
	RunEval(specs []EvalSpec) ([]EvalResult, error)
}

// SlicePrefetcher is optionally implemented by shard runners that can
// ship content-addressed slice payloads to their workers ahead of the
// specs that reference them, overlapping the transfer with compute the
// coordinator is doing meanwhile. The call must be advisory and
// asynchronous: it may do nothing at all, and a spec whose slice never
// arrived simply ships the payload with its own task frame — results
// are byte-identical whether a prefetch landed, raced, or was dropped.
// The pipeline type-asserts this on Config.Runner at the points where
// the next round's slices are known before the current round finishes.
type SlicePrefetcher interface {
	PrefetchSlices(slices []LogSlice)
}

// LogSlice is the shippable unit of execution-log data: a wire-form
// record slice plus the coordinator's intern table, content-addressed by
// joblog.HashSlice. The hash makes slice shipping cacheable: a runtime
// that has already shipped a slice to a worker may send a reference
// (Ref true, payload empty) instead, and the worker resolves it from its
// decoded-columns cache — or reports a miss, in which case the full
// payload is resent. Execution is byte-identical either way: the hash
// covers every bit of the payload, so a hit decodes to exactly what a
// fresh ship would have.
//pxql:wirehash ceaf829da3a51793 v=6

//pxql:wire decode=Data
type LogSlice struct {
	// Hash is the content address (joblog.HashSlice of Log and Intern);
	// empty disables caching for this slice.
	Hash string `json:"hash,omitempty"`
	// Ref marks a frame that carries only the hash: the payload was
	// already shipped on this connection and should be resolved from the
	// worker's cache.
	Ref    bool           `json:"ref,omitempty"`
	Log    joblog.WireLog `json:"log"`
	Intern []string       `json:"intern,omitempty"`
}

// NewLogSlice builds a content-addressed slice from wire parts.
func NewLogSlice(w joblog.WireLog, intern []string) LogSlice {
	return LogSlice{Hash: joblog.HashSlice(w, intern), Log: w, Intern: intern}
}

// AsRef returns the hash-only form of the slice, for shipping to a
// worker that already holds the payload.
func (s LogSlice) AsRef() LogSlice { return LogSlice{Hash: s.Hash, Ref: true} }

// SizeEstimate approximates the payload's in-memory footprint — the
// accounting unit of worker-side cache eviction and the runtime's
// bytes-saved counter.
func (s *LogSlice) SizeEstimate() int {
	n := 0
	for _, f := range s.Log.Fields {
		n += len(f.Name) + 16
	}
	for _, r := range s.Log.Records {
		n += len(r.ID) + 16
		for _, v := range r.Values {
			n += len(v.Str) + 24
		}
	}
	for _, str := range s.Intern {
		n += len(str) + 16
	}
	return n
}

// SliceData is a decoded slice: the rebuilt log plus its columnar view,
// seeded with the shipped intern table so symbol planes derived from it
// are bit-equal to the coordinator's. This is what workers cache.
type SliceData struct {
	Log  *joblog.Log
	Cols *joblog.Columns
}

// Data decodes the slice, validating everything. A reference slice
// cannot be decoded — the caller must resolve it from a cache first.
func (s *LogSlice) Data() (*SliceData, error) {
	if s.Ref {
		return nil, fmt.Errorf("core: slice %.12s shipped as a cache reference but no cached payload is available", s.Hash)
	}
	log, err := s.Log.Log()
	if err != nil {
		return nil, err
	}
	cols, err := log.ColumnsSeeded(s.Intern)
	if err != nil {
		return nil, err
	}
	return &SliceData{Log: log, Cols: cols}, nil
}

// EnumGroup is one blocking group's contribution to an enumeration
// shard: the group's full membership (the inner loop needs every member)
// plus the outer-member positions [Lo, Hi) this shard owns. A group
// larger than a shard's unit budget straddles shard boundaries by
// appearing in several specs with disjoint outer ranges.
//
//pxql:wire decode=EnumSpec.Run
type EnumGroup struct {
	Members []int `json:"members"` // record indices into the spec's combined slices, group order
	Lo      int   `json:"lo"`
	Hi      int   `json:"hi"`
	// Budget is the group's total stratified pair budget (the whole
	// group's, not this shard's slice — straddling shards re-derive the
	// identical draw set and take the outer positions they own). Zero and
	// ignored in Bernoulli mode.
	Budget int `json:"budget,omitempty"`
}

// EnumSpec is a self-contained unit of pair enumeration: a worker given
// only this value reproduces exactly the related pairs the serial walk
// visits in the spec's slice of the iteration space.
//
//pxql:wire decode=Run
type EnumSpec struct {
	// Slices is the log's segment layout (see SegmentLayout): one
	// content-addressed slice per segment, concatenating in order to the
	// whole log, shared by every spec of every round at one watermark.
	Slices []LogSlice  `json:"slices"`
	Groups []EnumGroup `json:"groups,omitempty"`
	KeepP  float64     `json:"keep_p"` // global Bernoulli keep probability
	Seed   uint64      `json:"seed"`   // splitmix seed; counters key on record indices
	// Stratified switches the walk from Bernoulli thinning (keepPair over
	// KeepP) to per-group budgeted draws (groupDraws over each group's
	// Budget, seeded by the first member's record index).
	Stratified bool `json:"stratified,omitempty"`
	// Round marks which pass of a Wilson-adaptive two-pass enumeration
	// this spec belongs to: RoundFinal (0, also the one-shot mode) or
	// RoundPilot (1). The walk itself is identical — budgets differ —
	// but workers and traces can tell the passes apart, and the marker
	// keeps a pilot result from ever being mistaken for the final set.
	Round    int                `json:"round,omitempty"`
	Level    features.Level     `json:"level"`
	Despite  pxql.PredicateSpec `json:"despite"`
	Observed pxql.PredicateSpec `json:"observed"`
	Expected pxql.PredicateSpec `json:"expected"`
}

// Enumeration round markers (EnumSpec.Round).
const (
	RoundFinal = 0 // the output pass: its pairs are the sampled set
	RoundPilot = 1 // the pilot pass feeding Wilson-adaptive budgets
)

// EnumResult lists a shard's related pairs in iteration order, addressed
// by global record index.
//
//pxql:wire decode=Explainer.runEnumSpecs
type EnumResult struct {
	RefA   []int  `json:"ref_a,omitempty"`
	RefB   []int  `json:"ref_b,omitempty"`
	Labels []bool `json:"labels,omitempty"` // true = performed as observed
}

// MatSpec is a self-contained unit of pair-matrix materialization: the
// rows [Row0, Row0+len(PairA)) of the coordinator's matrix. The slice is
// the whole training sample's record set (shared — and therefore
// content-cacheable — across every materialization and scoring spec of
// one explanation); seeding the worker's columnar view with its intern
// table makes the returned symbol planes (packed diff symbols included)
// bit-equal to a local fill.
//
//pxql:wire decode=Run
type MatSpec struct {
	Slice LogSlice       `json:"slice"`
	Level features.Level `json:"level"`
	PairA []int          `json:"pair_a"` // slice-local record index per row
	PairB []int          `json:"pair_b"`
	Row0  int            `json:"row0"`
}

// MatResult carries the materialized plane rows of one shard.
//
//pxql:wire decode=Explainer.materializePairs
type MatResult struct {
	Row0 int       `json:"row0"`
	N    int       `json:"n"`
	Num  []float64 `json:"num,omitempty"`
	Sym  []uint64  `json:"sym,omitempty"`
}

// ScoreSpec is a self-contained unit of candidate scoring: one round of
// Algorithm 1's per-feature best-predicate search, restricted to the
// derived features [FeatLo, FeatHi). The worker re-materializes the
// working set's pair rows from the sample slice (seeded with the
// coordinator's intern table) and scores its feature range exactly as
// the in-process loop does. The slice is the whole sample, not just the
// round's working set, so every scoring round of a growth loop shares
// one content hash — after the first ship, rounds reference the cached
// slice instead of re-shipping shrinking subsets.
//
//pxql:wire decode=Run
type ScoreSpec struct {
	Slice     LogSlice           `json:"slice"`
	Level     features.Level     `json:"level"`      // deriver level (the full Table 1 set)
	CandLevel features.Level     `json:"cand_level"` // Section 6.8 clause-feature restriction
	Target    string             `json:"target"`
	PairA     []int              `json:"pair_a"` // slice-local record indices per working-set row
	PairB     []int              `json:"pair_b"`
	Labels    []bool             `json:"labels"` // per working-set row
	PairVec   []joblog.WireValue `json:"pair_vec"`
	Clause    pxql.PredicateSpec `json:"clause"`
	FeatLo    int                `json:"feat_lo"`
	FeatHi    int                `json:"feat_hi"`
}

// CandSpec is the wire form of one scored candidate.
//
//pxql:wire decode=Explainer.candidatesSharded
type CandSpec struct {
	FeatIdx int           `json:"feat_idx"`
	Atom    pxql.AtomSpec `json:"atom"`
	Gain    float64       `json:"gain"`
}

// ScoreResult lists a shard's candidates in ascending feature order.
//
//pxql:wire decode=Explainer.candidatesSharded
type ScoreResult struct {
	Cands []CandSpec `json:"cands,omitempty"`
}

// EvalSpec is a self-contained unit of explanation evaluation: the
// shard's slice of the quadratic obs/exp walk EvaluateExplanation
// performs over the despite context (the query's despite clause
// conjoined with the explanation's generated extension). Like EnumSpec
// it carries blocking groups with outer ranges and the splitmix counter
// ranges of the subsampling decision; unlike EnumSpec it returns only
// four integer counts, accumulated worker-side by fused popcounts, so
// merged metrics are exact and identical to the serial walk at every
// shard count.
//
//pxql:wire decode=Run
type EvalSpec struct {
	Slices   []LogSlice         `json:"slices"` // the segment layout, exactly as on EnumSpec
	Groups   []EnumGroup        `json:"groups,omitempty"`
	KeepP    float64            `json:"keep_p"`
	Seed     uint64             `json:"seed"`
	Level    features.Level     `json:"level"`
	Despite  pxql.PredicateSpec `json:"despite"` // query despite ∧ generated extension
	Observed pxql.PredicateSpec `json:"observed"`
	Expected pxql.PredicateSpec `json:"expected"`
	Because  pxql.PredicateSpec `json:"because"`
}

// EvalResult carries one shard's contribution to the metric counts.
//
//pxql:wire decode=EvaluateExplanationSharded
type EvalResult struct {
	Context     int `json:"context"`       // pairs satisfying the despite context
	Exp         int `json:"exp"`           // … additionally satisfying expected
	Bec         int `json:"bec"`           // … additionally satisfying because
	ObsGivenBec int `json:"obs_given_bec"` // … satisfying because and observed
}

// cutPoint returns the start of shard s's slice of n units under an
// nShards-way proportional cut — contiguous, deterministic, and balanced
// to within one unit.
func cutPoint(n, nShards, s int) int { return s * n / nShards }

// Run executes the enumeration spec in this process, decoding and
// combining its slices.
func (s *EnumSpec) Run() (*EnumResult, error) {
	data, err := DecodeSlices(s.Slices)
	if err != nil {
		return nil, err
	}
	return s.RunWith(data)
}

// RunWith executes the enumeration spec against the already-combined
// decoded view of its slices — the shared executor behind the
// in-process runner and the workers, whose runtimes resolve each slice
// through a cache and combine once per watermark. Predicates are
// compiled against the combined view's own columns; compiled evaluation
// is intern-independent (it matches the interpreted semantics exactly),
// so the labels and refs are identical to the coordinator's direct walk.
func (s *EnumSpec) RunWith(data *SliceData) (*EnumResult, error) {
	log, cols := data.Log, data.Cols
	if s.Level < features.Level1 || s.Level > features.Level3 {
		return nil, fmt.Errorf("core: enum spec has invalid feature level %d", s.Level)
	}
	if s.Round != RoundFinal && s.Round != RoundPilot {
		return nil, fmt.Errorf("core: enum spec has invalid round %d", s.Round)
	}
	if s.Round != RoundFinal && !s.Stratified {
		return nil, fmt.Errorf("core: enum spec marks a pilot round without stratified mode")
	}
	for gi, g := range s.Groups {
		if g.Lo < 0 || g.Hi < g.Lo || g.Hi > len(g.Members) {
			return nil, fmt.Errorf("core: enum spec group %d has invalid outer range [%d, %d)", gi, g.Lo, g.Hi)
		}
		if g.Budget < 0 {
			return nil, fmt.Errorf("core: enum spec group %d has negative budget %d", gi, g.Budget)
		}
		for _, li := range g.Members {
			if li < 0 || li >= log.Len() {
				return nil, fmt.Errorf("core: enum spec group %d references record %d of %d", gi, li, log.Len())
			}
		}
	}
	despite, err := s.Despite.Predicate()
	if err != nil {
		return nil, err
	}
	obs, err := s.Observed.Predicate()
	if err != nil {
		return nil, err
	}
	exp, err := s.Expected.Predicate()
	if err != nil {
		return nil, err
	}

	d := features.NewDeriver(log.Schema, s.Level)
	cDes := despite.Compile(d, cols)
	cObs := obs.Compile(d, cols)
	cExp := exp.Compile(d, cols)

	res := &EnumResult{}
	des := bitset.Make(pairBlock)
	obsSel := bitset.Make(pairBlock)
	expSel := bitset.Make(pairBlock)
	ai := make([]int, 0, pairBlock)
	bi := make([]int, 0, pairBlock)
	flush := func() {
		if len(ai) == 0 {
			return
		}
		nw := bitset.Words(len(ai))
		dS, oS, eS := des[:nw], obsSel[:nw], expSel[:nw]
		cDes.EvalBlock(ai, bi, dS)
		oS.CopyFrom(dS)
		cObs.AndBlock(ai, bi, oS)
		eS.CopyFrom(dS)
		cExp.AndBlock(ai, bi, eS)
		// Related = (obs ∪ exp) within the despite selection, classified
		// exactly like enumerateRelated.
		eS.OrWith(oS)
		eS.ForEach(func(k int) {
			res.RefA = append(res.RefA, ai[k])
			res.RefB = append(res.RefB, bi[k])
			res.Labels = append(res.Labels, oS.Get(k))
		})
		ai, bi = ai[:0], bi[:0]
	}
	emit := func(i, j int) {
		ai = append(ai, i)
		bi = append(bi, j)
		if len(ai) == pairBlock {
			flush()
		}
	}
	for _, g := range s.Groups {
		n := len(g.Members)
		if s.Stratified && uint64(g.Budget) < pairCount64(n) {
			// Re-derive the whole group's draw set (identical in every
			// straddling shard) and walk the outer positions this shard
			// owns — a contiguous run of the sorted flat indices.
			ts := groupDraws(s.Seed, g.Members[0], n, g.Budget)
			n1 := uint64(n - 1)
			lo := sort.Search(len(ts), func(k int) bool { return ts[k] >= uint64(g.Lo)*n1 })
			hi := sort.Search(len(ts), func(k int) bool { return ts[k] >= uint64(g.Hi)*n1 })
			for _, t := range ts[lo:hi] {
				p := int(t / n1)
				r := int(t % n1)
				q := r
				if r >= p {
					q = r + 1
				}
				emit(g.Members[p], g.Members[q])
			}
			continue
		}
		for _, i := range g.Members[g.Lo:g.Hi] {
			for _, j := range g.Members {
				if i == j {
					continue
				}
				if !s.Stratified && !keepPair(s.Seed, i, j, s.KeepP) {
					continue
				}
				emit(i, j)
			}
		}
	}
	flush()
	return res, nil
}

// Run executes the evaluation spec in this process, decoding and
// combining its slices.
func (s *EvalSpec) Run() (*EvalResult, error) {
	data, err := DecodeSlices(s.Slices)
	if err != nil {
		return nil, err
	}
	return s.RunWith(data)
}

// RunWith executes the evaluation spec against the already-combined
// decoded view of its slices. The walk mirrors EvaluateExplanation's
// batched inner loop bit for bit: the despite context fills a selection
// bitmap per tile, expected and because push down over copies, observed
// pushes down over the because selection, and all four counts are
// popcounts — integers, so summing shard results in any grouping equals
// the serial totals exactly.
func (s *EvalSpec) RunWith(data *SliceData) (*EvalResult, error) {
	log := data.Log
	if s.Level < features.Level1 || s.Level > features.Level3 {
		return nil, fmt.Errorf("core: eval spec has invalid feature level %d", s.Level)
	}
	for gi, g := range s.Groups {
		if g.Lo < 0 || g.Hi < g.Lo || g.Hi > len(g.Members) {
			return nil, fmt.Errorf("core: eval spec group %d has invalid outer range [%d, %d)", gi, g.Lo, g.Hi)
		}
		for _, li := range g.Members {
			if li < 0 || li >= log.Len() {
				return nil, fmt.Errorf("core: eval spec group %d references record %d of %d", gi, li, log.Len())
			}
		}
	}
	despite, err := s.Despite.Predicate()
	if err != nil {
		return nil, err
	}
	obs, err := s.Observed.Predicate()
	if err != nil {
		return nil, err
	}
	exp, err := s.Expected.Predicate()
	if err != nil {
		return nil, err
	}
	bec, err := s.Because.Predicate()
	if err != nil {
		return nil, err
	}

	d := features.NewDeriver(log.Schema, s.Level)
	cols := data.Cols
	cDes := despite.Compile(d, cols)
	cObs := obs.Compile(d, cols)
	cExp := exp.Compile(d, cols)
	cBec := bec.Compile(d, cols)

	res := &EvalResult{}
	des := bitset.Make(pairBlock)
	scratch := bitset.Make(pairBlock)
	ai := make([]int, 0, pairBlock)
	bi := make([]int, 0, pairBlock)
	flush := func() {
		if len(ai) == 0 {
			return
		}
		nw := bitset.Words(len(ai))
		dS, t := des[:nw], scratch[:nw]
		cDes.EvalBlock(ai, bi, dS)
		res.Context += dS.Count()
		t.CopyFrom(dS)
		cExp.AndBlock(ai, bi, t)
		res.Exp += t.Count()
		t.CopyFrom(dS)
		cBec.AndBlock(ai, bi, t)
		res.Bec += t.Count()
		cObs.AndBlock(ai, bi, t)
		res.ObsGivenBec += t.Count()
		ai, bi = ai[:0], bi[:0]
	}
	for _, g := range s.Groups {
		for _, i := range g.Members[g.Lo:g.Hi] {
			for _, j := range g.Members {
				if i == j {
					continue
				}
				if !keepPair(s.Seed, i, j, s.KeepP) {
					continue
				}
				ai = append(ai, i)
				bi = append(bi, j)
				if len(ai) == pairBlock {
					flush()
				}
			}
		}
	}
	flush()
	return res, nil
}

// pairSlice builds the wire form of the records a pair list touches,
// in first-appearance order over (a0, b0, a1, b1, ...), plus the pairs
// re-addressed by slice-local index.
func pairSlice(log *joblog.Log, refs []pairRef) (wire joblog.WireLog, pa, pb []int) {
	local := make(map[int]int)
	var recs []*joblog.Record
	of := func(ri int) int {
		li, ok := local[ri]
		if !ok {
			li = len(recs)
			local[ri] = li
			recs = append(recs, log.Records[ri])
		}
		return li
	}
	pa = make([]int, len(refs))
	pb = make([]int, len(refs))
	for i, ref := range refs {
		pa[i] = of(ref.a)
		pb[i] = of(ref.b)
	}
	return joblog.WireSlice(log.Schema, recs), pa, pb
}

// plannedSample is the shard-execution view of one training sample: its
// record slice in content-addressed wire form (built once per growth
// loop — the unit every materialization and scoring spec of the
// explanation shares) plus the slice-local pair indices per sample row.
type plannedSample struct {
	slice  LogSlice
	pa, pb []int // slice-local record indices per sample row
}

// planSample builds the sample's shared slice. It returns nil when no
// shard runner is configured — the direct path needs no wire form.
func (e *Explainer) planSample(sample *pairSet) *plannedSample {
	if e.cfg.Runner == nil {
		return nil
	}
	wire, pa, pb := pairSlice(e.log, sample.refs)
	intern := e.log.Columns().Intern().Strings()
	plan := &plannedSample{slice: NewLogSlice(wire, intern), pa: pa, pb: pb}
	// Start shipping the sample slice to every worker now: every
	// materialization and scoring spec of the growth loop references it,
	// and a capable runner overlaps the transfer with the planning and
	// compute between here and each worker's first task.
	if pf, ok := e.cfg.Runner.(SlicePrefetcher); ok {
		pf.PrefetchSlices([]LogSlice{plan.slice})
	}
	return plan
}

// planMatShards cuts the sample's rows into nShards contiguous
// materialization specs over the shared sample slice.
func planMatShards(plan *plannedSample, level features.Level, nShards int) []MatSpec {
	if nShards < 1 {
		nShards = 1
	}
	n := len(plan.pa)
	// More specs than rows would only replicate the shared slice into
	// empty shards.
	if nShards > n && n > 0 {
		nShards = n
	}
	specs := make([]MatSpec, nShards)
	for s := 0; s < nShards; s++ {
		lo, hi := cutPoint(n, nShards, s), cutPoint(n, nShards, s+1)
		specs[s] = MatSpec{
			Slice: plan.slice,
			Level: level,
			PairA: plan.pa[lo:hi],
			PairB: plan.pb[lo:hi],
			Row0:  lo,
		}
	}
	return specs
}

// Run executes the materialization spec in this process, decoding its
// slice.
func (s *MatSpec) Run() (*MatResult, error) {
	data, err := s.Slice.Data()
	if err != nil {
		return nil, err
	}
	return s.RunWith(data)
}

// RunWith executes the materialization spec against an already-decoded
// slice (the worker cache's hit path).
func (s *MatSpec) RunWith(data *SliceData) (*MatResult, error) {
	log := data.Log
	if s.Level < features.Level1 || s.Level > features.Level3 {
		return nil, fmt.Errorf("core: mat spec has invalid feature level %d", s.Level)
	}
	if len(s.PairA) != len(s.PairB) {
		return nil, fmt.Errorf("core: mat spec has %d/%d pair sides", len(s.PairA), len(s.PairB))
	}
	for i := range s.PairA {
		if s.PairA[i] < 0 || s.PairA[i] >= log.Len() || s.PairB[i] < 0 || s.PairB[i] >= log.Len() {
			return nil, fmt.Errorf("core: mat spec pair %d references record outside the %d-record slice", i, log.Len())
		}
	}
	d := features.NewDeriver(log.Schema, s.Level)
	m := d.NewPairMatrix(len(s.PairA))
	for i := range s.PairA {
		m.Fill(data.Cols, i, s.PairA[i], s.PairB[i])
	}
	return &MatResult{Row0: s.Row0, N: m.N, Num: m.Num, Sym: m.Sym}, nil
}

// planScoreShards cuts one candidate-scoring round into nShards
// contiguous feature-range specs over the current working set. Every
// spec of every round references the same sample slice, so with a
// caching runtime only the first frame of the growth loop ships records.
func (e *Explainer) planScoreShards(plan *plannedSample, labels []bool, cur []int,
	pairVec []joblog.Value, clause pxql.Predicate) []ScoreSpec {

	nFeat := e.d.Schema().Len()
	nShards := e.cfg.Shards
	if nShards < 1 {
		nShards = 1
	}
	// More specs than features would only duplicate the shared payload
	// to do nothing.
	if nShards > nFeat && nFeat > 0 {
		nShards = nFeat
	}
	pa := make([]int, len(cur))
	pb := make([]int, len(cur))
	subLabels := make([]bool, len(cur))
	for k, i := range cur {
		pa[k] = plan.pa[i]
		pb[k] = plan.pb[i]
		subLabels[k] = labels[i]
	}
	vec := make([]joblog.WireValue, len(pairVec))
	for i, v := range pairVec {
		vec[i] = joblog.WireValue{Kind: v.Kind.String(), Num: v.Num, Str: v.Str}
	}
	specs := make([]ScoreSpec, nShards)
	for s := 0; s < nShards; s++ {
		specs[s] = ScoreSpec{
			Slice:     plan.slice,
			Level:     e.d.Level(),
			CandLevel: e.cfg.Level,
			Target:    e.cfg.Target,
			PairA:     pa,
			PairB:     pb,
			Labels:    subLabels,
			PairVec:   vec,
			Clause:    clause.Spec(),
			FeatLo:    cutPoint(nFeat, nShards, s),
			FeatHi:    cutPoint(nFeat, nShards, s+1),
		}
	}
	return specs
}

// Run executes the scoring spec in this process, decoding its slice.
func (s *ScoreSpec) Run() (*ScoreResult, error) {
	data, err := s.Slice.Data()
	if err != nil {
		return nil, err
	}
	return s.RunWith(data)
}

// RunWith executes the scoring spec against an already-decoded slice
// (the worker cache's hit path): it rebuilds the working set's pair
// matrix from the sample slice (intern-seeded, so the planes are
// bit-equal to the coordinator's) and scores its feature range with the
// same per-feature search the in-process candidates loop uses.
func (s *ScoreSpec) RunWith(data *SliceData) (*ScoreResult, error) {
	log := data.Log
	if s.Level < features.Level1 || s.Level > features.Level3 ||
		s.CandLevel < features.Level1 || s.CandLevel > features.Level3 {
		return nil, fmt.Errorf("core: score spec has invalid levels %d/%d", s.Level, s.CandLevel)
	}
	if len(s.PairA) != len(s.PairB) || len(s.PairA) != len(s.Labels) {
		return nil, fmt.Errorf("core: score spec has %d/%d/%d pair sides and labels",
			len(s.PairA), len(s.PairB), len(s.Labels))
	}
	for i := range s.PairA {
		if s.PairA[i] < 0 || s.PairA[i] >= log.Len() || s.PairB[i] < 0 || s.PairB[i] >= log.Len() {
			return nil, fmt.Errorf("core: score spec pair %d references record outside the %d-record slice", i, log.Len())
		}
	}
	clause, err := s.Clause.Predicate()
	if err != nil {
		return nil, err
	}
	d := features.NewDeriver(log.Schema, s.Level)
	if s.FeatLo < 0 || s.FeatHi < s.FeatLo || s.FeatHi > d.Schema().Len() {
		return nil, fmt.Errorf("core: score spec has invalid feature range [%d, %d) of %d", s.FeatLo, s.FeatHi, d.Schema().Len())
	}
	if len(s.PairVec) != d.Schema().Len() {
		return nil, fmt.Errorf("core: score spec pair vector has %d features, schema has %d", len(s.PairVec), d.Schema().Len())
	}
	if s.FeatLo == s.FeatHi {
		return &ScoreResult{}, nil
	}
	pairVec := make([]joblog.Value, len(s.PairVec))
	for i, wv := range s.PairVec {
		switch wv.Kind {
		case joblog.Missing.String():
			pairVec[i] = joblog.None()
		case joblog.Numeric.String():
			pairVec[i] = joblog.Num(wv.Num)
		case joblog.Nominal.String():
			pairVec[i] = joblog.Str(wv.Str)
		default:
			return nil, fmt.Errorf("core: score spec pair vector value %d has unknown kind %q", i, wv.Kind)
		}
	}
	cols := data.Cols

	// Materialize only this spec's feature columns: DeriveNum/DeriveSym
	// compute exactly the cells MaterializeInto would have written (the
	// plane split means numOff >= 0 iff the feature is a numeric base),
	// so across all specs of a round the matrix work totals one full
	// fill instead of one per spec. Untouched columns stay zero;
	// scoreFeature reads only its own feature's column.
	m := d.NewPairMatrix(len(s.PairA))
	for f := s.FeatLo; f < s.FeatHi; f++ {
		if numOff := d.NumOffset(f); numOff >= 0 {
			for i := range s.PairA {
				m.Num[i*m.NumStride()+numOff] = d.DeriveNum(cols, s.PairA[i], s.PairB[i], f)
			}
		} else {
			symOff := d.SymOffset(f)
			for i := range s.PairA {
				m.Sym[i*m.SymStride()+symOff] = d.DeriveSym(cols, s.PairA[i], s.PairB[i], f)
			}
		}
	}
	cur := make([]int, m.N)
	for i := range cur {
		cur[i] = i
	}
	in := cols.Intern()
	res := &ScoreResult{}
	for f := s.FeatLo; f < s.FeatHi; f++ {
		atom, gain, ok := scoreFeature(d, in, m, cur, s.Labels, pairVec, clause, s.Target, s.CandLevel, f)
		if !ok {
			continue
		}
		res.Cands = append(res.Cands, CandSpec{FeatIdx: f, Atom: atom.Spec(), Gain: gain})
	}
	return res, nil
}

// enumeratePairs enumerates the related pairs of (q, despite), routing
// through the configured shard runner when one is set and the direct
// in-process walk otherwise. Both paths produce byte-identical pair
// sets. A configured pilot fraction switches the stratified mode to the
// Wilson-adaptive two-pass scheme (see adaptive.go).
func (e *Explainer) enumeratePairs(ctx context.Context, q *pxql.Query, despite pxql.Predicate, seed uint64) (*pairSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stratified := e.cfg.SampleMode == SampleStratified
	if stratified && e.cfg.SamplePilot > 0 && e.cfg.SampleBudget > 0 {
		return e.enumerateAdaptive(ctx, q, despite, seed)
	}
	if e.cfg.Runner == nil {
		if stratified {
			return enumerateRelatedOpt(e.log, e.d, q, despite, seed, e.cfg.Parallelism,
				enumOpts{stratified: true, budget: e.cfg.SampleBudget}), nil
		}
		return enumerateRelated(e.log, e.d, q, despite, e.cfg.MaxPairs, seed, e.cfg.Parallelism), nil
	}
	e.prefetchLayout()
	limit := e.cfg.MaxPairs
	if stratified {
		limit = e.cfg.SampleBudget
	}
	return e.runEnumSpecs(PlanEnumShards(e.cfg.Layout, e.log, e.d.Level(), q, despite, stratified, limit, e.cfg.Shards, seed))
}

// runEnumSpecs executes planned enumeration specs on the configured
// runner and merges the validated results in spec order — the shared
// tail of every runner-backed enumeration round.
func (e *Explainer) runEnumSpecs(specs []EnumSpec) (*pairSet, error) {
	results, err := e.cfg.Runner.RunEnum(specs)
	if err != nil {
		return nil, fmt.Errorf("core: shard enumeration: %w", err)
	}
	if len(results) != len(specs) {
		return nil, fmt.Errorf("core: shard enumeration returned %d results for %d specs", len(results), len(specs))
	}
	ps := &pairSet{}
	for si := range results {
		r := &results[si]
		if len(r.RefA) != len(r.RefB) || len(r.RefA) != len(r.Labels) {
			return nil, fmt.Errorf("core: shard %d returned ragged enumeration result", si)
		}
		for k := range r.RefA {
			if r.RefA[k] < 0 || r.RefA[k] >= e.log.Len() || r.RefB[k] < 0 || r.RefB[k] >= e.log.Len() {
				return nil, fmt.Errorf("core: shard %d returned pair outside the %d-record log", si, e.log.Len())
			}
			ps.refs = append(ps.refs, pairRef{r.RefA[k], r.RefB[k]})
		}
		ps.labels = append(ps.labels, r.Labels...)
	}
	return ps, nil
}

// materializePairs materializes the sample's pair matrix, through the
// shard runner when one is configured (plan is the sample's shared
// slice, nil on the direct path). Shard results are copied into
// row-disjoint ranges, so the merged matrix equals a local fill bit for
// bit.
func (e *Explainer) materializePairs(ctx context.Context, sample *pairSet, plan *plannedSample) (*features.PairMatrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.cfg.Runner == nil {
		return materialize(e.log, e.d, sample, e.cfg.Parallelism), nil
	}
	specs := planMatShards(plan, e.d.Level(), e.cfg.Shards)
	results, err := e.cfg.Runner.RunMat(specs)
	if err != nil {
		return nil, fmt.Errorf("core: shard materialization: %w", err)
	}
	if len(results) != len(specs) {
		return nil, fmt.Errorf("core: shard materialization returned %d results for %d specs", len(results), len(specs))
	}
	m := e.d.NewPairMatrix(len(sample.refs))
	numW, symW := e.d.NumWidth(), e.d.SymWidth()
	for si := range results {
		r := &results[si]
		want := len(specs[si].PairA)
		if r.Row0 != specs[si].Row0 || r.N != want ||
			len(r.Num) != want*numW || len(r.Sym) != want*symW {
			return nil, fmt.Errorf("core: shard %d returned mismatched matrix rows", si)
		}
		copy(m.Num[r.Row0*numW:], r.Num)
		copy(m.Sym[r.Row0*symW:], r.Sym)
	}
	return m, nil
}

// candidatesSharded is the runner-backed counterpart of candidates():
// one scoring round fanned out over contiguous feature ranges. Results
// concatenate in spec order, i.e. ascending feature order — exactly the
// compaction order of the in-process loop.
func (e *Explainer) candidatesSharded(plan *plannedSample, labels []bool, cur []int,
	pairVec []joblog.Value, clause pxql.Predicate) ([]candidate, error) {

	specs := e.planScoreShards(plan, labels, cur, pairVec, clause)
	results, err := e.cfg.Runner.RunScore(specs)
	if err != nil {
		return nil, fmt.Errorf("core: shard scoring: %w", err)
	}
	if len(results) != len(specs) {
		return nil, fmt.Errorf("core: shard scoring returned %d results for %d specs", len(results), len(specs))
	}
	in := e.log.Columns().Intern()
	var out []candidate
	for si := range results {
		for _, c := range results[si].Cands {
			if c.FeatIdx < specs[si].FeatLo || c.FeatIdx >= specs[si].FeatHi {
				return nil, fmt.Errorf("core: shard %d returned candidate for feature %d outside [%d, %d)",
					si, c.FeatIdx, specs[si].FeatLo, specs[si].FeatHi)
			}
			atom, err := c.Atom.Atom()
			if err != nil {
				return nil, fmt.Errorf("core: shard %d: %w", si, err)
			}
			out = append(out, candidate{
				featIdx: c.FeatIdx,
				atom:    atom,
				ma:      newMatrixAtom(e.d, in, c.FeatIdx, atom),
				gain:    c.Gain,
			})
		}
	}
	return out, nil
}
