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
//     no decode;
//   - a ShardRunner (internal/shard's worker Pool): the batch ships with
//     the log's segments as content-addressed LogSlices (LogSlices, built
//     only now and shipped only with the batch that walks them — nothing
//     ships ahead of need), which workers decode and concatenate into the
//     same whole-log view.
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

// ShardRunner executes batches of planned shard specs over a log's
// slices — its segments, concatenating in order to the whole log every
// spec's record indices address — and returns one result per spec, in
// spec order. Implementations may run specs in any order and on any mix
// of goroutines or worker processes; the specs and their results are
// designed so that only the batch's order — which the caller fixes —
// affects the merged output.
type ShardRunner interface {
	RunEnum(slices []LogSlice, specs []EnumSpec) ([]EnumResult, error)
	RunEval(slices []LogSlice, specs []EvalSpec) ([]EvalResult, error)
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
	// Runner executes the specs on workers (see internal/shard), shipping
	// the log's segments with them. nil runs them on this process's cores
	// over the log's resident columns.
	Runner ShardRunner
}

// shards resolves the spec count of one walk.
func (ex Exec) shards() int {
	if ex.Shards > 0 {
		return ex.Shards
	}
	return par.Resolve(ex.Parallelism) * 8
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

// runSpecs executes one batch of planned specs and returns one result
// per spec — the one seam where the executor is chosen: with no Runner
// the kernel (walk) runs locally over the log's resident columns, with
// the clauses compiled once for the batch (compileBatch); otherwise the
// batch goes to the Runner with the log's slices (ship is its method for
// this spec kind, kind its name in errors), whose workers compile each
// spec from its wire form. A cancelled ctx surfaces as the bare
// ctx.Err().
func runSpecs[S, R any](ctx context.Context, ex Exec, log *joblog.Log, kind string, specs []S,
	clauses func(*S) walkClauses, walk func(*S, *joblog.Log, []*pxql.CompiledPredicate) (*R, error),
	ship func(ShardRunner, []LogSlice, []S) ([]R, error)) ([]R, error) {

	if ex.Runner == nil {
		batch, err := compileBatch(log, specs, clauses)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
		return runLocal(ctx, batch, ex.Parallelism, func(b *boundSpec[S]) (*R, error) { return walk(b.spec, log, b.c) })
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, err := ship(ex.Runner, LogSlices(log), specs)
	if err != nil {
		return nil, fmt.Errorf("core: shard %s: %w", kind, err)
	}
	if len(results) != len(specs) {
		return nil, fmt.Errorf("core: shard %s returned %d results for %d specs", kind, len(results), len(specs))
	}
	return results, nil
}

// LogSlice is the shippable unit of execution-log data: a wire-form
// record slice, content-addressed by joblog.HashSlice. The hash lets a
// runtime send a reference (Ref true, payload empty) for a slice the
// worker already holds — see internal/shard for which ones it holds.
// Execution is byte-identical either way: the hash covers every bit of
// the payload, so a held slice is exactly what a fresh ship decodes to.
//pxql:wirehash 918e30003077463d v=11

//pxql:wire decode=Decode
type LogSlice struct {
	// Hash is the content address: joblog.HashSlice of Log.
	Hash string `json:"hash,omitempty"`
	// Ref marks a frame that carries only the hash: the worker resolves
	// it from the slices it holds.
	Ref bool           `json:"ref,omitempty"`
	Log joblog.WireLog `json:"log"`
}

// AsRef returns the hash-only form of the slice, for shipping to a
// worker that already holds the payload.
func (s LogSlice) AsRef() LogSlice { return LogSlice{Hash: s.Hash, Ref: true} }

// Decode decodes the slice's payload, validating everything. A
// reference carries no payload: the caller resolves it first.
func (s *LogSlice) Decode() (*joblog.Log, error) {
	if s.Ref {
		return nil, fmt.Errorf("core: slice %.12s is a reference and carries no payload", s.Hash)
	}
	return s.Log.Log()
}

// EnumGroup is one blocking group's contribution to an enumeration
// shard: the group's full membership (the inner loop needs every member)
// plus the outer-member positions [Lo, Hi) this shard owns. A group
// larger than a shard's unit budget straddles shard boundaries by
// appearing in several specs with disjoint outer ranges.
//
//pxql:wire decode=EnumSpec.RunWith
type EnumGroup struct {
	Members []int `json:"members"` // record indices into the batch's combined slices, group order
	Lo      int   `json:"lo"`
	Hi      int   `json:"hi"`
}

// EnumSpec is a self-contained unit of pair enumeration: an executor
// given this value and the whole-log view of its batch's slices (locally,
// the resident columns) produces exactly the related pairs of the spec's
// slice of the iteration space.
//
//pxql:wire decode=RunWith
type EnumSpec struct {
	Groups []EnumGroup `json:"groups,omitempty"`
	// KeepP is the global Bernoulli keep probability — one value for the
	// whole plan, computed over the unfiltered candidate count.
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
//pxql:wire decode=RunWith
type EvalSpec struct {
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

// deriverKey memoizes a log's deriver per feature level on its columnar
// view (joblog.Columns.Memo), so the explainers of every question and the
// specs of every batch over the same view, local or worker-held, share
// one.
type deriverKey features.Level

// deriverOf returns log's memoized deriver for level.
func deriverOf(log *joblog.Log, level features.Level) *features.Deriver {
	return log.Columns().Memo(deriverKey(level), func() any {
		return features.NewDeriver(log.Schema, level)
	}).(*features.Deriver)
}

// compileSpecs validates the level and decodes and compiles wire-form
// predicates against the log, under its memoized deriver for the level.
func compileSpecs(log *joblog.Log, level features.Level, specs ...pxql.PredicateSpec) ([]*pxql.CompiledPredicate, error) {
	if level < features.Level1 || level > features.Level3 {
		return nil, fmt.Errorf("core: spec has invalid feature level %d", level)
	}
	cols := log.Columns()
	dr := deriverOf(log, level)
	out := make([]*pxql.CompiledPredicate, len(specs))
	for i, ps := range specs {
		p, err := ps.Predicate()
		if err != nil {
			return nil, err
		}
		out[i] = p.Compile(dr, cols)
	}
	return out, nil
}

// walkClauses are a spec's feature level and the wire forms of its
// clauses, in the order its kernel reads them.
type walkClauses struct {
	level   features.Level
	clauses [4]pxql.PredicateSpec
	n       int
}

// compile decodes and compiles the clauses against the log.
func (w *walkClauses) compile(log *joblog.Log) ([]*pxql.CompiledPredicate, error) {
	return compileSpecs(log, w.level, w.clauses[:w.n]...)
}

// sameAs reports whether o holds the very wire forms w holds: the same
// level and, clause by clause, the same atom storage. The planners give
// every spec of a batch one wire form of each clause, so this is how a
// batch knows its specs share their compiled clauses.
func (w *walkClauses) sameAs(o *walkClauses) bool {
	if w.level != o.level || w.n != o.n {
		return false
	}
	for i, c := range w.clauses[:w.n] {
		a, b := c.Atoms, o.clauses[i].Atoms
		if len(a) != len(b) || len(a) > 0 && &a[0] != &b[0] {
			return false
		}
	}
	return true
}

// boundSpec is a spec of a local batch with its compiled clauses.
type boundSpec[S any] struct {
	spec *S
	c    []*pxql.CompiledPredicate
}

// compileBatch binds each spec of a local batch to its compiled clauses,
// compiling once per run of specs with the same wire forms (sameAs) —
// once per batch a planner cut. A compiled predicate is immutable and
// safe for concurrent use, so the batch's specs share it.
func compileBatch[S any](log *joblog.Log, specs []S, clauses func(*S) walkClauses) ([]boundSpec[S], error) {
	out := make([]boundSpec[S], len(specs))
	var prev walkClauses
	var c []*pxql.CompiledPredicate
	for i := range specs {
		wc := clauses(&specs[i])
		if c == nil || !wc.sameAs(&prev) {
			var err error
			if c, err = wc.compile(log); err != nil {
				return nil, err
			}
			prev = wc
		}
		out[i] = boundSpec[S]{spec: &specs[i], c: c}
	}
	return out, nil
}

// tileBuf is one walk's tile: its pair of index arrays, the code planes
// its clauses share (pxql.Tile), the kernels' selection bitmaps and the
// skip sampler's inversion table. A walk cut into many specs would
// otherwise allocate some 80 KB per spec to hold a few thousand kept
// pairs; the pool recycles them between specs and queries.
type tileBuf struct {
	ai, bi [pairBlock]int
	tile   pxql.Tile
	sels   tileSels
	skip   skipTable
}

// tileSels is a walk kernel's scratch: three selection bitmaps of a tile.
type tileSels [3][pairBlock / 64]uint64

var tilePool = sync.Pool{New: func() any { return new(tileBuf) }}

// walkTiles is the one definition of the pair probability space both
// kernels walk, so training enumeration and explanation evaluation can
// never drift apart on blocking, capping or order. It validates a
// spec's groups against an n-record view, then visits the ordered pairs
// the groups' outer ranges own that survive the sampling decision — in
// (group, outer member, inner member) order, as tiles of at most
// pairBlock pairs: parallel index arrays, and the same block as a
// pxql.Tile bound to the clauses the kernel will push through it, with
// three selection bitmaps of scratch. All are reused between calls;
// visit must not retain them. Each pair
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
	visit func(tile *pxql.Tile, ai, bi []int, sels *tileSels)) error {

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
					gap, ok := st.next(int64(n1 - q))
					if !ok {
						break
					}
					q += int(gap)
					j := members[q]
					if q >= p {
						j = members[q+1]
					}
					ai = append(ai, i)
					bi = append(bi, j)
					if len(ai) == pairBlock {
						tile.Reset(ai, bi)
						visit(tile, ai, bi, &tb.sels)
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
						visit(tile, ai, bi, &tb.sels)
						ai, bi = ai[:0], bi[:0]
					}
				}
			}
		}
	}
	if len(ai) > 0 {
		tile.Reset(ai, bi)
		visit(tile, ai, bi, &tb.sels)
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

// RunWith walks the spec's slice of the enumeration space over the
// whole log — the one enumeration kernel, behind the coordinator's local
// executor (its resident log) and the workers (which concatenate the
// shipped slices once per frame they have not just answered). To avoid the quadratic blowup on task logs the planner has
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
// against the log's own columns; compiled evaluation is
// intern-independent (it matches the interpreted semantics exactly), so
// labels and refs are the same on every log of the same records.
func (s *EnumSpec) RunWith(log *joblog.Log) (*EnumResult, error) {
	wc := s.clauses()
	c, err := wc.compile(log)
	if err != nil {
		return nil, err
	}
	res := &EnumResult{}
	if err := s.walkInto(log, c, res); err != nil {
		return nil, err
	}
	return res, nil
}

// clauses returns the spec's despite, observed and expected clauses.
func (s *EnumSpec) clauses() walkClauses {
	return walkClauses{level: s.Level, clauses: [4]pxql.PredicateSpec{s.Despite, s.Observed, s.Expected}, n: 3}
}

// resultPool recycles the local executor's result planes between rounds:
// a thinned walk returns some hundred kilobytes per spec that the sampler
// reads once (pairSet.release puts them back). Results decoded off the
// wire are adopted as they are and never enter the pool.
var resultPool = sync.Pool{New: func() any { return new(EnumResult) }}

// runPooled is RunWith's walk, with its clauses compiled as c, into
// planes from resultPool.
func (s *EnumSpec) runPooled(log *joblog.Log, c []*pxql.CompiledPredicate) (*EnumResult, error) {
	res := resultPool.Get().(*EnumResult)
	if err := s.walkInto(log, c, res); err != nil {
		resultPool.Put(res)
		return nil, err
	}
	return res, nil
}

// walkInto is RunWith's walk with the spec's clauses compiled as c
// (despite, observed, expected), overwriting res and reusing its planes'
// capacity.
func (s *EnumSpec) walkInto(log *joblog.Log, c []*pxql.CompiledPredicate, res *EnumResult) error {
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
	return walkTiles(s.Groups, log.Len(), s.Seed, s.KeepP, c, func(tile *pxql.Tile, ai, bi []int, sels *tileSels) {
		nw := bitset.Words(len(ai))
		dS, oS, eS := bitset.Set(sels[0][:nw]), bitset.Set(sels[1][:nw]), bitset.Set(sels[2][:nw])
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

// RunWith walks the spec's slice of the metric walk over a whole-log
// view — the one evaluation kernel. Each tile of pairs is evaluated
// batched: the despite context fills a selection bitmap, expected and
// because push down over copies of it, observed pushes down over the
// because selection, and all four counts are popcounts — the per-pair
// conditional nesting of Definitions 4–6 becomes word-wise AND
// composition, and the counts are integers, so summing spec results in
// any grouping gives the same totals.
func (s *EvalSpec) RunWith(log *joblog.Log) (*EvalResult, error) {
	wc := s.clauses()
	c, err := wc.compile(log)
	if err != nil {
		return nil, err
	}
	return s.walk(log, c)
}

// clauses returns the spec's despite, observed, expected and because
// clauses.
func (s *EvalSpec) clauses() walkClauses {
	return walkClauses{level: s.Level, clauses: [4]pxql.PredicateSpec{s.Despite, s.Observed, s.Expected, s.Because}, n: 4}
}

// walk is RunWith's walk with the spec's clauses compiled as c (despite,
// observed, expected, because).
func (s *EvalSpec) walk(log *joblog.Log, c []*pxql.CompiledPredicate) (*EvalResult, error) {
	cDes, cObs, cExp, cBec := c[0], c[1], c[2], c[3]

	res := &EvalResult{}
	err := walkTiles(s.Groups, log.Len(), s.Seed, s.KeepP, c, func(tile *pxql.Tile, ai, bi []int, sels *tileSels) {
		nw := bitset.Words(len(ai))
		dS, t := bitset.Set(sels[0][:nw]), bitset.Set(sels[1][:nw])
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
	return runEnumSpecs(ctx, ex, e.log,
		PlanEnumShards(e.log, e.d.Level(), q, despite, e.cfg.MaxPairs, ex.shards(), seed))
}

// runEnumSpecs executes planned enumeration specs and adopts the
// validated results in spec order — the shared tail of every enumeration
// round, whoever ran it. The caller releases the set once it has sampled
// or counted it.
func runEnumSpecs(ctx context.Context, ex Exec, log *joblog.Log, specs []EnumSpec) (*pairSet, error) {
	results, err := runSpecs(ctx, ex, log, "enumeration", specs, (*EnumSpec).clauses, (*EnumSpec).runPooled, ShardRunner.RunEnum)
	if err != nil {
		return nil, err
	}
	return adoptResults(results, log.Len(), ex.Runner == nil)
}
