package core

// Shard execution for the two quadratic pair walks: Definition 7's
// related-pair enumeration and the Definitions 4–6 metric walk. Each is
// cut by the planners (segment.go) into self-contained specs — blocking
// groups with outer ranges, the predicates in wire form, and the
// splitmix counter ranges of the subsampling decision (the seed plus the
// record indices and member positions it keys on) — and every spec is
// walked by the one kernel in this file, EnumSpec.RunWith or
// EvalSpec.RunWith, whoever executes the batch:
//
//   - the coordinator itself (Exec.Runner nil): the specs run on par.Do
//     over the log's resident columnar view — no wire form, no hashing,
//     no decode; they carry no Slices;
//   - a ShardRunner (internal/shard's worker Pool): the specs carry the
//     log's segment layout as content-addressed LogSlices, which workers
//     decode, cache and concatenate into the same whole-log view.
//
// Results merge in spec order through one validated tail per spec kind,
// so the output is byte-identical at every spec count, parallelism and
// transport. Everything downstream of enumeration — the §4.3 balanced
// sample (~2000 pairs), its pair matrix, Algorithm 1's growth rounds and
// the training diagnostics — is deliberately small and stays on the
// coordinator: shipping it costs more than computing it.
//
// Layering: this package defines the specs, the planners and the kernel;
// ShardRunner is the seam internal/shard plugs its worker runtime into
// (core cannot import internal/shard — the workers import core to
// execute specs).

import (
	"context"
	"fmt"
	"math"
	"sync"

	"perfxplain/internal/bitset"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
)

// ShardRunner executes batches of planned shard specs and returns one
// result per spec, in spec order. Implementations may run specs in any
// order and on any mix of goroutines or worker processes; the specs and
// their results are designed so that only the batch's order — which the
// caller fixes — affects the merged output.
type ShardRunner interface {
	RunEnum(specs []EnumSpec) ([]EnumResult, error)
	RunEval(specs []EvalSpec) ([]EvalResult, error)
}

// Exec says who executes a planned batch of walk specs and how many
// specs a walk is cut into. The zero value runs on the coordinator, on
// every core.
type Exec struct {
	// Parallelism bounds the coordinator's worker goroutines — the spec
	// fan-out here, and materialization and predicate scoring in an
	// Explainer. Values <= 0 mean runtime.GOMAXPROCS(0). Output is
	// byte-identical at every setting.
	Parallelism int
	// Shards is the number of specs each quadratic walk is cut into;
	// <= 0 means eight per Parallelism worker, so uneven blocking groups
	// still balance. Output is byte-identical at every count.
	Shards int
	// Runner executes the specs on workers (see internal/shard). nil
	// runs them on this process's cores over the log's resident columns.
	Runner ShardRunner
	// Layout is the log's segment decomposition — NewSegmentLayout over a
	// store snapshot's Segments or a flat log's SegmentViews — whose
	// content-addressed slices a Runner's specs carry. Required with a
	// Runner, unused without one; it must cover exactly the log's
	// records.
	Layout *SegmentLayout
}

// shards resolves the spec count of one walk.
func (ex Exec) shards() int {
	if ex.Shards > 0 {
		return ex.Shards
	}
	return par.Resolve(ex.Parallelism) * 8
}

// check rejects a layout that does not cover the log — including the
// missing layout of a Runner, which has no other way to receive records.
func (ex Exec) check(log *joblog.Log) error {
	if (ex.Runner != nil || ex.Layout != nil) && ex.Layout.Total() != log.Len() {
		return fmt.Errorf("core: segment layout covers %d records, log has %d (a Runner ships Exec.Layout, the log's own layout)",
			ex.Layout.Total(), log.Len())
	}
	return nil
}

// runLocal is the coordinator's own executor: the batch's specs run on
// up to workers goroutines against one resident view, each checking ctx
// before it starts — a cancelled batch returns ctx.Err(), never a
// partial merge — and results land in spec order.
func runLocal[S, R any](ctx context.Context, specs []S, workers int, run func(*S) (*R, error)) ([]R, error) {
	out := make([]R, len(specs))
	errs := make([]error, len(specs))
	par.Do(len(specs), workers, func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		var res *R
		if res, errs[i] = run(&specs[i]); errs[i] == nil {
			out[i] = *res
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prefetch starts shipping the layout's slices to every worker — called
// at the head of each planning round, so payloads a worker already
// holds are skipped and new ones overlap with planning. Advisory (see
// SlicePrefetcher), and a no-op without a Runner.
func (ex Exec) prefetch() {
	if pf, ok := ex.Runner.(SlicePrefetcher); ok {
		pf.PrefetchSlices(ex.Layout.Slices)
	}
}

// runSpecs executes one batch of planned specs and returns one result
// per spec — the one seam where the executor is chosen: with no Runner
// the kernel (walk) runs locally over the log's resident columns;
// otherwise the batch goes to the Runner (ship is its method for this
// spec kind, kind its name in errors). A cancelled ctx surfaces as the
// bare ctx.Err().
func runSpecs[S, R any](ctx context.Context, ex Exec, log *joblog.Log, kind string, specs []S,
	walk func(*S, *SliceData) (*R, error), ship func(ShardRunner, []S) ([]R, error)) ([]R, error) {

	if ex.Runner == nil {
		data := &SliceData{Log: log, Cols: log.Columns()}
		return runLocal(ctx, specs, ex.Parallelism, func(s *S) (*R, error) { return walk(s, data) })
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, err := ship(ex.Runner, specs)
	if err != nil {
		return nil, fmt.Errorf("core: shard %s: %w", kind, err)
	}
	if len(results) != len(specs) {
		return nil, fmt.Errorf("core: shard %s returned %d results for %d specs", kind, len(results), len(specs))
	}
	return results, nil
}

// SlicePrefetcher is optionally implemented by shard runners that can
// ship content-addressed slice payloads to their workers ahead of the
// specs that reference them, overlapping the transfer with compute the
// coordinator is doing meanwhile. The call must be advisory and
// asynchronous: it may do nothing at all, and a spec whose slice never
// arrived simply ships the payload with its own task frame — results
// are byte-identical whether a prefetch landed, raced, or was dropped.
// The pipeline type-asserts this on Exec.Runner at the head of each
// planning round (see Exec.prefetch).
type SlicePrefetcher interface {
	PrefetchSlices(slices []LogSlice)
}

// LogSlice is the shippable unit of execution-log data: a wire-form
// record slice, content-addressed by joblog.HashSlice. The hash makes
// slice shipping cacheable: a runtime that has already shipped a slice
// to a worker may send a reference (Ref true, payload empty) instead,
// and the worker resolves it from its decoded-columns cache — or reports
// a miss, in which case the full payload is resent. Execution is
// byte-identical either way: the hash covers every bit of the payload,
// so a hit decodes to exactly what a fresh ship would have.
//pxql:wirehash 7b1f34cc928623e8 v=10

//pxql:wire decode=Data
type LogSlice struct {
	// Hash is the content address (joblog.HashSlice of Log); empty
	// disables caching for this slice.
	Hash string `json:"hash,omitempty"`
	// Ref marks a frame that carries only the hash: the payload was
	// already shipped on this connection and should be resolved from the
	// worker's cache.
	Ref bool           `json:"ref,omitempty"`
	Log joblog.WireLog `json:"log"`
}

// NewLogSlice builds a content-addressed slice from its wire form.
func NewLogSlice(w joblog.WireLog) LogSlice {
	return LogSlice{Hash: joblog.HashSlice(w), Log: w}
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
	return n
}

// SliceData is the view a spec kernel walks: a log plus its columnar
// view. Workers decode it from shipped slices (and cache it); the
// coordinator's local executor wraps its resident log.
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
	return &SliceData{Log: log, Cols: log.Columns()}, nil
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
}

// EnumSpec is a self-contained unit of pair enumeration: an executor
// given only this value (and, locally, the resident view its empty
// Slices stand for) produces exactly the related pairs of the spec's
// slice of the iteration space.
//
//pxql:wire decode=Run
type EnumSpec struct {
	// Slices is the log's segment layout (see SegmentLayout): one
	// content-addressed slice per segment, concatenating in order to the
	// whole log, shared by every spec of every round at one watermark.
	// Empty on specs the coordinator runs itself.
	Slices []LogSlice  `json:"slices"`
	Groups []EnumGroup `json:"groups,omitempty"`
	// KeepP is the global Bernoulli keep probability — one value for the
	// whole plan, computed over the unpruned, unfiltered candidate count.
	// It also selects the sampler (see walkTiles): at or above skipKeepP
	// every candidate pair is hashed; below it each outer record draws
	// geometric skips over its group's members (skip.go: integers only,
	// the same sample on every architecture).
	KeepP float64 `json:"keep_p"`
	// Seed is the splitmix seed. Counters key on (i, j) global record
	// indices on the hashed path; on the skip path the stream keys on the
	// outer record's index and its gaps count positions in Members.
	Seed  uint64         `json:"seed"`
	Level features.Level `json:"level"`
	// Despite is the residual despite clause: the conjuncts Groups does
	// not already prove of every pair it holds (residualDespite).
	Despite  pxql.PredicateSpec `json:"despite"`
	Observed pxql.PredicateSpec `json:"observed"`
	Expected pxql.PredicateSpec `json:"expected"`
}

// EnumResult lists a shard's related pairs in iteration order, addressed
// by global record index.
//
//pxql:wire decode=runEnumSpecs
type EnumResult struct {
	RefA   []int  `json:"ref_a,omitempty"`
	RefB   []int  `json:"ref_b,omitempty"`
	Labels []bool `json:"labels,omitempty"` // true = performed as observed
}

// EvalSpec is a self-contained unit of explanation evaluation: the
// spec's slice of the quadratic obs/exp walk EvaluateExplanation
// performs over the despite context (the query's despite clause
// conjoined with the explanation's generated extension). Like EnumSpec
// it carries blocking groups with outer ranges and the splitmix counter
// ranges of the subsampling decision (KeepP and Seed mean exactly what
// they mean there); unlike EnumSpec it returns only four integer counts,
// accumulated by fused popcounts, so merged metrics are exact and
// identical at every spec count.
//
//pxql:wire decode=Run
type EvalSpec struct {
	Slices   []LogSlice         `json:"slices"` // the segment layout, exactly as on EnumSpec
	Groups   []EnumGroup        `json:"groups,omitempty"`
	KeepP    float64            `json:"keep_p"`
	Seed     uint64             `json:"seed"`
	Level    features.Level     `json:"level"`
	Despite  pxql.PredicateSpec `json:"despite"` // residual of query despite ∧ generated extension
	Observed pxql.PredicateSpec `json:"observed"`
	Expected pxql.PredicateSpec `json:"expected"`
	Because  pxql.PredicateSpec `json:"because"`
}

// EvalResult carries one shard's contribution to the metric counts.
//
//pxql:wire decode=EvaluateExplanation
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

// Run executes the enumeration spec standalone in this process,
// decoding and combining its slices.
func (s *EnumSpec) Run() (*EnumResult, error) {
	data, err := DecodeSlices(s.Slices)
	if err != nil {
		return nil, err
	}
	return s.RunWith(data)
}

// deriverKey memoizes a view's deriver per feature level on its columnar
// view (joblog.Columns.Memo), so the specs of a batch — and every later
// batch over the same view, local or worker-cached — share one.
type deriverKey features.Level

// deriver validates the level and returns the view's deriver for it.
func (d *SliceData) deriver(level features.Level) (*features.Deriver, error) {
	if level < features.Level1 || level > features.Level3 {
		return nil, fmt.Errorf("core: spec has invalid feature level %d", level)
	}
	return d.Cols.Memo(deriverKey(level), func() any {
		return features.NewDeriver(d.Log.Schema, level)
	}).(*features.Deriver), nil
}

// compile decodes and compiles wire-form predicates against the view.
func (d *SliceData) compile(dr *features.Deriver, specs ...pxql.PredicateSpec) ([]*pxql.CompiledPredicate, error) {
	out := make([]*pxql.CompiledPredicate, len(specs))
	for i, ps := range specs {
		p, err := ps.Predicate()
		if err != nil {
			return nil, err
		}
		out[i] = p.Compile(dr, d.Cols)
	}
	return out, nil
}

// tileBuf is one walk's tile: its pair of index arrays, the code planes
// its clauses share (pxql.Tile) and the skip sampler's inversion table. A
// walk cut into many specs would otherwise allocate some 80 KB per spec
// to hold a few thousand kept pairs; the pool recycles them between specs
// and queries.
type tileBuf struct {
	ai, bi [pairBlock]int
	tile   pxql.Tile
	skip   skipTable
}

var tilePool = sync.Pool{New: func() any { return new(tileBuf) }}

// walkTiles is the one definition of the pair probability space both
// kernels walk, so training enumeration and explanation evaluation can
// never drift apart on blocking, capping or order. It validates a
// spec's groups against an n-record view, then visits the ordered pairs
// the groups' outer ranges own that survive the sampling decision — in
// (group, outer member, inner member) order, as tiles of at most
// pairBlock pairs: parallel index arrays, and the same block as a
// pxql.Tile bound to the clauses the kernel will push through it. All
// three are reused between calls; visit must not retain them. Each pair
// is kept independently with
// probability keepP, decided one of two ways:
//
//   - keepP >= skipKeepP: every candidate pair (i, j) is hashed
//     (keepPair) — a pure function of (seed, i, j);
//   - 0 < keepP < skipKeepP: only the kept pairs are touched. Each outer
//     record i draws geometric gaps from its own splitmix counter stream
//     (skipStream) over the group's other members in member order — a
//     pure function of (seed, i, the inner member's position in
//     g.Members, keepP), computed in integers through a fixed-point
//     table built once per walk (skip.go), so it is the same function on
//     every architecture. A spec always carries a group's whole member
//     list, however the group straddles specs, segments or workers, so
//     the kept set is the same at every parallelism, spec count,
//     executor, transport, seal boundary and GOARCH.
//
// Both are exact iid Bernoulli(keepP) thinnings of the same pair space
// in the same order; they keep different pairs.
func walkTiles(groups []EnumGroup, n int, seed uint64, keepP float64, clauses []*pxql.CompiledPredicate,
	visit func(tile *pxql.Tile, ai, bi []int)) error {

	for gi, g := range groups {
		if g.Lo < 0 || g.Hi < g.Lo || g.Hi > len(g.Members) {
			return fmt.Errorf("core: spec group %d has invalid outer range [%d, %d)", gi, g.Lo, g.Hi)
		}
		for _, li := range g.Members {
			if li < 0 || li >= n {
				return fmt.Errorf("core: spec group %d references record %d of %d", gi, li, n)
			}
		}
	}
	tb := tilePool.Get().(*tileBuf)
	defer tilePool.Put(tb)
	ai, bi := tb.ai[:0], tb.bi[:0]
	tile := &tb.tile
	tile.Bind(pairBlock, clauses...)
	skip := skipSampled(keepP)
	if skip {
		tb.skip.build(skipQuantum(keepP))
	}
	for _, g := range groups {
		members := g.Members
		if skip {
			// Inner positions run over the group's other members: q
			// counts them in member order with the outer's own slot p
			// left out, so ascending q is the dense loop's order.
			n1 := len(members) - 1
			for p := g.Lo; p < g.Hi; p++ {
				i := members[p]
				st := newSkipStream(seed, i, &tb.skip)
				for q := 0; ; q++ {
					gap, ok := st.next(n1 - q)
					if !ok {
						break
					}
					q += gap
					j := members[q]
					if q >= p {
						j = members[q+1]
					}
					ai = append(ai, i)
					bi = append(bi, j)
					if len(ai) == pairBlock {
						tile.Reset(ai, bi)
						visit(tile, ai, bi)
						ai, bi = ai[:0], bi[:0]
					}
				}
			}
		} else {
			for _, i := range members[g.Lo:g.Hi] {
				for _, j := range members {
					if i == j || !keepPair(seed, i, j, keepP) {
						continue
					}
					ai = append(ai, i)
					bi = append(bi, j)
					if len(ai) == pairBlock {
						tile.Reset(ai, bi)
						visit(tile, ai, bi)
						ai, bi = ai[:0], bi[:0]
					}
				}
			}
		}
	}
	if len(ai) > 0 {
		tile.Reset(ai, bi)
		visit(tile, ai, bi)
	}
	return nil
}

// maxPresize caps expectedKept, in pairs (17 bytes each across the three
// result planes); a larger result grows by append from there.
const maxPresize = 1 << 18

// expectedKept is the result capacity of a skip-sampled walk: the
// expected kept count of the candidate pairs the groups' outer ranges
// own plus four standard deviations, capped at maxPresize. A spec is
// wire input and its groups are validated only inside walkTiles, so
// ranges are taken as found — an invalid one counts nothing — and no
// spec can size an allocation past the cap.
func expectedKept(groups []EnumGroup, keepP float64) int {
	var owned float64
	for _, g := range groups {
		if g.Lo >= 0 && g.Lo < g.Hi && g.Hi <= len(g.Members) {
			owned += float64(g.Hi-g.Lo) * float64(len(g.Members)-1)
		}
	}
	e := keepP * owned
	return int(math.Min(e+4*math.Sqrt(e)+16, maxPresize))
}

// RunWith walks the spec's slice of the enumeration space over a
// whole-log view — the one enumeration kernel, behind the coordinator's
// local executor (its resident columns) and the workers (whose runtimes
// resolve each shipped slice through a cache and combine once per
// watermark). To avoid the quadratic blowup on task logs the planner has
// already turned despite conjuncts of the forms
//
//	<raw>_issame = T   (group records by their raw value)
//	<raw> = c          (base feature: keep records with value c)
//
// into blocking and prefilter steps, and Despite is the residual clause:
// what the planner's grouping has not already proven of every in-group
// pair (see residualDespite). The walk verifies the residual and the
// outcome clauses in full. Per tile the despite clause fills a selection
// bitmap, the observed and expected clauses are pushed down over that
// selection (AndTile — dead words are skipped, and clauses over one
// column share its code plane), and the related set is their word-wise
// union, read out in ascending bit order. Predicates are compiled
// against the view's own columns; compiled evaluation is
// intern-independent (it matches the interpreted semantics exactly), so
// labels and refs are the same on every view of the same records.
func (s *EnumSpec) RunWith(data *SliceData) (*EnumResult, error) {
	res := &EnumResult{}
	if err := s.runInto(data, res); err != nil {
		return nil, err
	}
	return res, nil
}

// resultPool recycles the local executor's result planes between rounds:
// a thinned walk returns some hundred kilobytes per spec that the sampler
// reads once (pairSet.release puts them back). Results decoded off the
// wire are adopted as they are and never enter the pool.
var resultPool = sync.Pool{New: func() any { return new(EnumResult) }}

// runPooled is RunWith into planes from resultPool.
func (s *EnumSpec) runPooled(data *SliceData) (*EnumResult, error) {
	res := resultPool.Get().(*EnumResult)
	if err := s.runInto(data, res); err != nil {
		resultPool.Put(res)
		return nil, err
	}
	return res, nil
}

// runInto is RunWith's walk, overwriting res and reusing its planes'
// capacity.
func (s *EnumSpec) runInto(data *SliceData, res *EnumResult) error {
	d, err := data.deriver(s.Level)
	if err != nil {
		return err
	}
	c, err := data.compile(d, s.Despite, s.Observed, s.Expected)
	if err != nil {
		return err
	}
	cDes, cObs, cExp := c[0], c[1], c[2]

	res.RefA, res.RefB, res.Labels = res.RefA[:0], res.RefB[:0], res.Labels[:0]
	if skipSampled(s.KeepP) {
		// A thinned walk's output is bounded by its kept pairs, whose
		// count is known in expectation: one sized buffer per plane
		// instead of append-doubling through a few hundred kilobytes.
		if n := expectedKept(s.Groups, s.KeepP); cap(res.RefA) < n || cap(res.RefB) < n || cap(res.Labels) < n {
			res.RefA, res.RefB, res.Labels = make([]int, 0, n), make([]int, 0, n), make([]bool, 0, n)
		}
	}
	des := bitset.Make(pairBlock)
	obsSel := bitset.Make(pairBlock)
	expSel := bitset.Make(pairBlock)
	return walkTiles(s.Groups, data.Log.Len(), s.Seed, s.KeepP, c, func(tile *pxql.Tile, ai, bi []int) {
		nw := bitset.Words(len(ai))
		dS, oS, eS := des[:nw], obsSel[:nw], expSel[:nw]
		dS.Ones(len(ai))
		cDes.AndTile(tile, dS)
		oS.CopyFrom(dS)
		cObs.AndTile(tile, oS)
		eS.CopyFrom(dS)
		cExp.AndTile(tile, eS)
		// Related = (obs ∪ exp) within the despite selection. A pair
		// satisfying both obs and exp would contradict obs ⊨ ¬exp
		// (Definition 1); classify as observed, which can only happen
		// with inconsistent user predicates.
		eS.OrWith(oS)
		eS.ForEach(func(k int) {
			res.RefA = append(res.RefA, ai[k])
			res.RefB = append(res.RefB, bi[k])
			res.Labels = append(res.Labels, oS.Get(k))
		})
	})
}

// Run executes the evaluation spec standalone in this process, decoding
// and combining its slices.
func (s *EvalSpec) Run() (*EvalResult, error) {
	data, err := DecodeSlices(s.Slices)
	if err != nil {
		return nil, err
	}
	return s.RunWith(data)
}

// RunWith walks the spec's slice of the metric walk over a whole-log
// view — the one evaluation kernel. Each tile of pairs is evaluated
// batched: the despite context fills a selection bitmap, expected and
// because push down over copies of it, observed pushes down over the
// because selection, and all four counts are popcounts — the per-pair
// conditional nesting of Definitions 4–6 becomes word-wise AND
// composition, and the counts are integers, so summing spec results in
// any grouping gives the same totals.
func (s *EvalSpec) RunWith(data *SliceData) (*EvalResult, error) {
	d, err := data.deriver(s.Level)
	if err != nil {
		return nil, err
	}
	c, err := data.compile(d, s.Despite, s.Observed, s.Expected, s.Because)
	if err != nil {
		return nil, err
	}
	cDes, cObs, cExp, cBec := c[0], c[1], c[2], c[3]

	res := &EvalResult{}
	des := bitset.Make(pairBlock)
	scratch := bitset.Make(pairBlock)
	err = walkTiles(s.Groups, data.Log.Len(), s.Seed, s.KeepP, c, func(tile *pxql.Tile, ai, bi []int) {
		nw := bitset.Words(len(ai))
		dS, t := des[:nw], scratch[:nw]
		dS.Ones(len(ai))
		cDes.AndTile(tile, dS)
		res.Context += dS.Count()
		t.CopyFrom(dS)
		cExp.AndTile(tile, t)
		res.Exp += t.Count()
		t.CopyFrom(dS)
		cBec.AndTile(tile, t)
		res.Bec += t.Count()
		cObs.AndTile(tile, t)
		res.ObsGivenBec += t.Count()
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// inRange reports whether every index lies in [0, n): one branch-free
// max-reduce over the plane — a negative index reads as a huge unsigned
// one — and a single comparison.
func inRange(idx []int, n int) bool {
	var top uint
	for _, i := range idx {
		top = max(top, uint(i))
	}
	return len(idx) == 0 || top < uint(n)
}

// enumeratePairs enumerates the related pairs of (q, despite): one
// planned round of enumeration specs, Bernoulli-thinned to MaxPairs.
func (e *Explainer) enumeratePairs(ctx context.Context, q *pxql.Query, despite pxql.Predicate, seed uint64) (*pairSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex := e.cfg.Exec
	ex.prefetch()
	return runEnumSpecs(ctx, ex, e.log,
		PlanEnumShards(ex.Layout, e.log, e.d.Level(), q, despite, e.cfg.MaxPairs, ex.shards(), seed))
}

// runEnumSpecs executes planned enumeration specs and adopts the
// validated results in spec order — the shared tail of every enumeration
// round, whoever ran it. The caller releases the set once it has sampled
// or counted it.
func runEnumSpecs(ctx context.Context, ex Exec, log *joblog.Log, specs []EnumSpec) (*pairSet, error) {
	results, err := runSpecs(ctx, ex, log, "enumeration", specs, (*EnumSpec).runPooled, ShardRunner.RunEnum)
	if err != nil {
		return nil, err
	}
	return adoptResults(results, log.Len(), ex.Runner == nil)
}
