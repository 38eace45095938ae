package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"perfxplain/internal/bitset"
	"perfxplain/internal/dtree"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
	"perfxplain/internal/pxql"
	"perfxplain/internal/stats"
)

// precisionWeight is the weight of a candidate atom's precision
// percentile against its generality percentile in Algorithm 1's score:
// Section 4.2 blends the two ranks 0.8 to 0.2.
const precisionWeight = 0.8

// Config tunes the explainer. The zero value is not usable; use
// DefaultConfig as a base.
type Config struct {
	// Width is the number of atomic predicates in a generated because
	// clause. Default 3 (the paper's usual setting).
	Width int
	// DespiteWidth is the width of generated despite extensions. Default 3
	// (Section 6.4 restricts generated clauses to width 3).
	DespiteWidth int
	// SampleSize is the target size of the balanced training sample.
	// Default 2000 (Section 4.3).
	SampleSize int
	// Level selects the feature hierarchy level (Section 6.8). Default
	// Level3 (the full Table 1 set).
	Level features.Level
	// Target is the raw feature whose derived features are the query
	// subject and therefore excluded from generated clauses. Default
	// "duration".
	Target string
	// MaxPairs caps walked related pairs; larger pair spaces are
	// Bernoulli-subsampled. A question the rank sampler draws (rank.go)
	// walks nothing, so the cap does not apply to it. Default 200000.
	MaxPairs int
	// Seed drives sampling.
	Seed int64
	// Exec says who executes the quadratic enumeration walk and with how
	// much parallelism: Parallelism, Shards, Runner (see Exec).
	// Sampling, materialization and growth always run on the coordinator,
	// on Parallelism goroutines.
	Exec
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Width:        3,
		DespiteWidth: 3,
		SampleSize:   2000,
		Level:        features.Level3,
		Target:       "duration",
		MaxPairs:     200000,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Width <= 0 {
		c.Width = d.Width
	}
	if c.DespiteWidth <= 0 {
		c.DespiteWidth = d.DespiteWidth
	}
	if c.SampleSize <= 0 {
		c.SampleSize = d.SampleSize
	}
	if c.Level == 0 {
		c.Level = d.Level
	}
	if c.Target == "" {
		c.Target = d.Target
	}
	if c.MaxPairs == 0 {
		c.MaxPairs = d.MaxPairs
	}
	return c
}

// Explainer answers PXQL queries against one execution log.
type Explainer struct {
	log *joblog.Log
	d   *features.Deriver
	cfg Config
}

// NewExplainer builds an explainer over the log. A zero Level is the
// default; any other outside 1–3 is an error.
func NewExplainer(log *joblog.Log, cfg Config) (*Explainer, error) {
	cfg = cfg.withDefaults()
	if log == nil || log.Len() == 0 {
		return nil, fmt.Errorf("core: empty log")
	}
	if _, ok := log.Schema.Index(cfg.Target); !ok {
		return nil, fmt.Errorf("core: log has no target feature %q", cfg.Target)
	}
	if cfg.Level < features.Level1 || cfg.Level > features.Level3 {
		return nil, fmt.Errorf("core: invalid feature level %d: want 1, 2 or 3", cfg.Level)
	}
	// The deriver always exposes the full Table 1 feature set: queries may
	// mention any derived feature regardless of the configured level. The
	// level only restricts which features generated clauses may use
	// (Section 6.8), enforced in candidates().
	return &Explainer{log: log, d: deriverOf(log, features.Level3), cfg: cfg}, nil
}

// Explanation is the answer to a PXQL query.
type Explanation struct {
	// Despite is the generated despite extension des' (empty when despite
	// generation was not requested). The user's own despite clause is in
	// the query, not here.
	Despite pxql.Predicate
	// Because is the generated because clause.
	Because pxql.Predicate

	// Training diagnostics, measured on the (sampled) training pairs.
	TrainPrecision  float64 // P(obs | bec ∧ des' ∧ des) on the sample
	TrainGenerality float64 // P(bec | des' ∧ des) on the sample
	// TrainRelevance is P(exp | des' ∧ des) on the related pairs and
	// RelatedPairs their number: exact when the sample was drawn by rank
	// (rank.go), the kept pairs' after MaxPairs thinning when it was
	// walked.
	TrainRelevance float64
	SampleSize     int
	RelatedPairs   int64

	// Atoms records per-predicate marginal quality: entry i holds the
	// cumulative precision and generality of the because clause's first
	// i+1 atoms on the training sample. Greedy construction puts the most
	// important predicate first (Section 3.3's ordering requirement); this
	// makes the claim inspectable.
	Atoms []AtomStats
}

// AtomStats is the cumulative quality of a because-clause prefix.
type AtomStats struct {
	Atom       pxql.Atom
	Precision  float64 // P(obs | first i+1 atoms) on the sample
	Generality float64 // P(first i+1 atoms) on the sample
}

// String renders the explanation in the paper's DESPITE/BECAUSE form.
func (x *Explanation) String() string {
	return fmt.Sprintf("DESPITE %s\nBECAUSE %s", x.Despite, x.Because)
}

// bind resolves the query's pair of interest and checks Definition 1:
// des and obs must hold on the pair, exp must not.
func (e *Explainer) bind(q *pxql.Query) (a, b *joblog.Record, err error) {
	if q.ID1 == "" || q.ID2 == "" {
		return nil, nil, fmt.Errorf("core: query does not name a pair of interest")
	}
	a = e.log.Find(q.ID1)
	if a == nil {
		return nil, nil, fmt.Errorf("core: no record %q in log", q.ID1)
	}
	b = e.log.Find(q.ID2)
	if b == nil {
		return nil, nil, fmt.Errorf("core: no record %q in log", q.ID2)
	}
	if err := q.Validate(e.d.Schema()); err != nil {
		return nil, nil, err
	}
	if !q.Despite.EvalPair(e.d, a, b) {
		return nil, nil, fmt.Errorf("core: despite clause does not hold for (%s, %s)", q.ID1, q.ID2)
	}
	if !q.Observed.EvalPair(e.d, a, b) {
		return nil, nil, fmt.Errorf("core: observed clause does not hold for (%s, %s)", q.ID1, q.ID2)
	}
	if q.Expected.EvalPair(e.d, a, b) {
		return nil, nil, fmt.Errorf("core: expected clause holds for (%s, %s); nothing to explain", q.ID1, q.ID2)
	}
	return a, b, nil
}

// Explain generates the because clause for the query, using the user's
// despite clause as-is (the paper's default mode).
//
// The pipeline checks ctx between its stages and at every growth round,
// returning ctx.Err() once it is done. Cancellation never perturbs a
// completed result — an explanation returned without error is
// byte-identical to an uncancelled run. The context carries cancellation
// only; it is never consulted for values or deadlines directly, so the
// deterministic-output contract is untouched.
func (e *Explainer) Explain(ctx context.Context, q *pxql.Query) (*Explanation, error) {
	return e.explain(ctx, q, false)
}

// ExplainWithDespite first generates a despite extension des' (Section
// 6.4), then generates the because clause in the context des ∧ des'
// (see Explain for the checkpoint contract).
func (e *Explainer) ExplainWithDespite(ctx context.Context, q *pxql.Query) (*Explanation, error) {
	return e.explain(ctx, q, true)
}

func (e *Explainer) explain(ctx context.Context, q *pxql.Query, genDespite bool) (*Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	// Both phases run over one recycled workspace: everything below reads
	// it, and nothing the explanation keeps — atoms, thresholds, counts —
	// points into it.
	ws := takeWorkspace()
	defer ws.release()
	pairVec := e.d.Vector(a, b)
	x := &Explanation{}
	despite := q.Despite
	if genDespite {
		des, err := e.generateDespite(ctx, q, pairVec, ws)
		if err != nil {
			return nil, err
		}
		x.Despite = des
		despite = q.Despite.And(des)
	}

	sample, nObs, nExp, err := e.trainingSample(ctx, q, despite, "because", ws)
	if err != nil {
		return nil, err
	}
	x.RelatedPairs = nObs + nExp
	x.TrainRelevance = 1 - float64(nObs)/float64(x.RelatedPairs)
	x.SampleSize = sample.len()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := e.materialize(ws, sample, pairVec)
	bec, prefix, err := e.grow(ctx, m, &ws.g, sample.labels, pairVec, e.cfg.Width)
	if err != nil {
		return nil, err
	}
	x.Because = bec

	// Training diagnostics over the sample, per clause prefix: round w of
	// the growth scored its winner over the clause's first w-1 atoms, so
	// the winner's support is the first w atoms' over the whole sample.
	if len(bec) > 0 {
		x.Atoms = make([]AtomStats, len(bec))
	}
	for w, a := range bec {
		s := prefix[w]
		x.Atoms[w] = AtomStats{Atom: a, Generality: float64(s.sat) / float64(m.N)}
		if s.sat > 0 {
			x.Atoms[w].Precision = float64(s.pos) / float64(s.sat)
		}
	}
	if n := len(x.Atoms); n > 0 {
		x.TrainPrecision = x.Atoms[n-1].Precision
		x.TrainGenerality = x.Atoms[n-1].Generality
	} else if m.N > 0 {
		// Empty clause: precision is the sample's observed fraction.
		obs, _ := sample.counts()
		x.TrainPrecision = float64(obs) / float64(m.N)
		x.TrainGenerality = 1
	}
	return x, nil
}

// GenerateDespite produces only the despite extension for a query
// (PerfXplain's response to an under-specified query, Section 6.4; see
// Explain for the checkpoint contract).
func (e *Explainer) GenerateDespite(ctx context.Context, q *pxql.Query) (pxql.Predicate, error) {
	a, b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	ws := takeWorkspace()
	defer ws.release()
	return e.generateDespite(ctx, q, e.d.Vector(a, b), ws)
}

// generateDespite grows the despite extension for the pair of interest
// whose derived vector is pairVec, over workspace ws.
func (e *Explainer) generateDespite(ctx context.Context, q *pxql.Query, pairVec []joblog.Value, ws *workspace) (pxql.Predicate, error) {
	sample, _, _, err := e.trainingSample(ctx, q, q.Despite, "despite", ws)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := e.materialize(ws, sample, pairVec)

	// Positive class for despite generation is "performed as expected":
	// the clause should maximise relevance P(exp | des' ∧ des).
	ws.flipped = resized(ws.flipped, len(sample.labels))
	for i, l := range sample.labels {
		ws.flipped[i] = !l
	}
	des, _, err := e.grow(ctx, m, &ws.g, ws.flipped, pairVec, e.cfg.DespiteWidth)
	return des, err
}

// materialize fills the workspace's pair matrix with the sample's
// derived vectors, restricted to what is scorable for the pair of
// interest whose derived vector is pairVec, and returns it.
func (e *Explainer) materialize(ws *workspace, sample *pairPlanes, pairVec []joblog.Value) *features.PairMatrix {
	ws.want = e.scorableMask(ws.want, pairVec)
	fillMatrix(&ws.m, e.log, e.d, sample, ws.want, e.cfg.Parallelism)
	return &ws.m
}

// trainingSample draws Section 4.3's balanced sample of (q, despite)'s
// related pairs and reports the class counts of the set it was drawn
// from. A rank-drawable question (rankSpaceOf) is sampled by rank and its
// counts are exact; any other is walked, thinned to MaxPairs, and its
// counts are those of the kept pairs. stream names the seeds. An empty
// related set is an error: there is nothing to learn from.
func (e *Explainer) trainingSample(ctx context.Context, q *pxql.Query, despite pxql.Predicate, stream string, ws *workspace) (
	sample *pairPlanes, nObs, nExp int64, err error) {

	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	seed := stats.DeriveSeed(e.cfg.Seed, stream+"-sample")
	if rs := rankSpaceOf(e.log, q, despite); rs != nil {
		if rs.nObs+rs.nExp == 0 {
			return nil, 0, 0, errNoRelated
		}
		return rs.sample(&ws.sample, &ws.rank, e.cfg.SampleSize, seed, e.cfg.Parallelism), rs.nObs, rs.nExp, nil
	}
	related, err := e.enumeratePairs(ctx, q, despite, stats.DeriveSeed(e.cfg.Seed, stream+"-pairs"))
	if err != nil {
		return nil, 0, 0, err
	}
	// The sample is a copy, so the walks' planes can go back to their pool.
	defer related.release()
	if related.len() == 0 {
		return nil, 0, 0, errNoRelated
	}
	// Sampling stays serial: it is O(pairs) cheap, and drawing from one
	// sequential stream over the deterministically ordered pair set keeps
	// it reproducible. The workspace's stream reseeded is the one
	// stats.DeriveRand would make.
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(0))
	}
	ws.rng.Seed(int64(seed))
	return balancedSample(&ws.sample, related, e.cfg.SampleSize, ws.rng),
		int64(related.nObs), int64(related.nExp), nil
}

// relatedCounts is trainingSample's class counts alone.
func (e *Explainer) relatedCounts(ctx context.Context, q *pxql.Query, despite pxql.Predicate, pairSeed uint64) (nObs, nExp int64, err error) {
	if rs := rankSpaceOf(e.log, q, despite); rs != nil {
		return rs.nObs, rs.nExp, ctx.Err()
	}
	related, err := e.enumeratePairs(ctx, q, despite, pairSeed)
	if err != nil {
		return 0, 0, err
	}
	related.release()
	return int64(related.nObs), int64(related.nExp), nil
}

var errNoRelated = errors.New("core: no related pairs in the log for this query")

// grow is Algorithm 1's greedy loop, shared by because generation
// (positive labels = performed-as-observed) and despite generation
// (labels flipped so positive = performed-as-expected, turning the
// precision measure into relevance — the only change the paper makes to
// the algorithm for des' generation).
//
// Each candidate comes with its support over the working set — the pairs
// it holds on and the positive ones among them — summed by scoreFeature
// from the per-value class counts its split was scored from, so a
// round's precisions and generalities are two divisions a candidate.
// Only the winner is lowered to a matrixAtom: its bitmap, filled on the
// working set's live words, narrows the working set by one word-AND, and
// its support is the next round's size and positives. grow returns the
// winners' supports with the clause: entry w is the support of the
// clause's first w+1 atoms over the whole matrix, which round w+1 read
// as its working set.
func (e *Explainer) grow(ctx context.Context, m *features.PairMatrix, g *growScratch, labels []bool,
	pairVec []joblog.Value, width int) (pxql.Predicate, []support, error) {

	in := e.log.Columns().Intern()
	g.pos = bitset.Reuse(g.pos, m.N)
	g.pos.LoadBools(labels)
	g.cur = bitset.Reuse(g.cur, m.N)
	g.cur.Ones(m.N)
	g.sel = bitset.Reuse(g.sel, m.N)
	g.prefix = g.prefix[:0]
	cur := support{sat: m.N, pos: g.pos.Count()}

	var clause pxql.Predicate
	for round := 0; round < width; round++ {
		// The round loop is the cancellation checkpoint of the growth
		// phase: each round is one bounded unit of scoring work, so a
		// cancelled query stops within a round's latency of the signal.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Stop when the remaining pairs are pure: no signal left.
		if cur.pos == 0 || cur.pos == cur.sat {
			break
		}
		g.ws = workingSet{n: cur.sat, bits: g.cur, pos: g.pos}
		cands := e.candidates(m, g, pairVec, clause)
		if len(cands) == 0 {
			break
		}

		// Cross-feature selection: percentile-normalised blend of
		// precision (P(positive | p)) and generality (P(p)).
		n := len(cands)
		g.precs, g.gens = resized(g.precs, n), resized(g.gens, n)
		g.precRanks, g.genRanks = resized(g.precRanks, n), resized(g.genRanks, n)
		g.order = resized(g.order, n)
		precs, gens := g.precs, g.gens
		for ci, c := range cands {
			prec := 0.0
			if c.sat > 0 {
				prec = float64(c.pos) / float64(c.sat)
			}
			precs[ci], gens[ci] = prec, float64(c.sat)/float64(cur.sat)
		}
		stats.PercentileRanks(g.precRanks, g.order, precs)
		stats.PercentileRanks(g.genRanks, g.order, gens)
		// A variable, so 1-w rounds as float64 arithmetic does, not to the
		// exact constant 0.2: near-tied candidates rank on that last bit.
		// For the same reason each product is rounded on its own (an
		// explicit conversion), so no GOARCH fuses the blend into a
		// multiply-add.
		w := precisionWeight
		best, bestScore := -1, -1.0
		for ci := range cands {
			score := float64(w*g.precRanks[ci]) + float64((1-w)*g.genRanks[ci])
			if score > bestScore {
				best, bestScore = ci, score
			}
		}
		win := cands[best]
		if clause == nil {
			clause = make(pxql.Predicate, 0, width)
		}
		clause = append(clause, win.atom)

		// Restrict the working set to pairs satisfying the clause so far.
		ma := newMatrixAtom(e.d, in, win.featIdx, win.atom)
		ma.fillRange(m, g.sel, g.cur)
		g.cur.AndWith(g.sel)
		cur = win.support
		g.prefix = append(g.prefix, cur)
	}
	return clause, g.prefix, nil
}

// growScratch is grow's recycled state, a part of the workspace: the
// working set, the per-round candidate slots and list, and the score
// lists. grow and candidates overwrite every element before they read
// it.
type growScratch struct {
	// cur is the working set's rows, pos the matrix's positive rows and
	// sel the round winner's selection; ws is the working set as scoring
	// reads it.
	cur, pos, sel bitset.Set
	ws            workingSet
	// prefix[w] is the support of the clause's first w+1 atoms.
	prefix []support
	// slots[f] is feature f's candidate of the round when found[f].
	slots []candidate
	found []bool
	cands []candidate
	// scratch[w] is scoring worker w's.
	scratch []scoreScratch
	// precs and gens are the candidates' precisions and generalities,
	// precRanks and genRanks their percentile ranks, order the ranks'
	// sort scratch.
	precs, gens, precRanks, genRanks []float64
	order                            []int
}

// support is an atom's or a clause's counts over a set of pairs: the
// pairs it holds on and the positive ones among them.
type support struct{ sat, pos int }

// candidate is one feature's best atom of a round and its support over
// the working set.
type candidate struct {
	featIdx int
	atom    pxql.Atom
	support
}

// workingSet is one growth round's surviving pairs as scoring reads
// them: their number and their matrix rows as a bitmap, beside the
// positive rows of the whole matrix, which every count is taken against.
type workingSet struct {
	n    int
	bits bitset.Set
	pos  bitset.Set
}

// candidates builds the best applicable predicate per feature by
// information gain (Algorithm 1 line 5) — the algorithm's inner loop,
// scored concurrently across features straight off the pair-matrix
// columns for the round's working set g.ws, every feature from its
// values' class counts (see scoreFeature). Results land in a per-feature
// slot and are compacted in schema order afterwards, so the candidate list is
// independent of scheduling. Features derived from the query target are
// excluded, as are features whose pair-of-interest value is missing (no
// applicable predicate exists) and atoms already in the clause. The list
// is g's own, valid until the next call.
func (e *Explainer) candidates(m *features.PairMatrix, g *growScratch,
	pairVec []joblog.Value, clause pxql.Predicate) []candidate {

	nf := e.d.Schema().Len()
	in := e.log.Columns().Intern()
	g.slots, g.found = resized(g.slots, nf), resized(g.found, nf)
	g.scratch = resized(g.scratch, par.Workers(nf, e.cfg.Parallelism))
	slots, found, ws, scratch := g.slots, g.found, &g.ws, g.scratch
	par.DoWorkers(nf, e.cfg.Parallelism, func(w, f int) {
		slots[f], _, found[f] = e.scoreFeature(in, m, ws, pairVec, clause, f, &scratch[w])
	})

	out := g.cands[:0]
	for f, ok := range found {
		if ok {
			out = append(out, slots[f])
		}
	}
	g.cands = out
	return out
}

// scoreScratch is one scoring worker's reusable buffers: the per-value
// class counts and, for the one column counts cannot score, the working
// set's values, their labels and their threshold sort. Every field is
// overwritten before it is read, so which worker last held a scratch
// never shows in a result.
type scoreScratch struct {
	counts []dtree.ClassCount
	vals   []float64
	labels []bool
	thr    dtree.ThresholdScratch
}

// scorable reports whether scoreFeature may propose an atom over derived
// feature f for the pair of interest whose derived vector is pairVec: f
// is not derived from the target, is within the configured feature level
// (Section 6.8: level 1 may use only isSame features, level 2 adds
// compare and diff, level 3 adds base features), and its value on the
// pair is not missing — else no predicate over f can hold on the pair.
func (e *Explainer) scorable(f int, pairVec []joblog.Value) bool {
	d, candLevel := e.d, e.cfg.Level
	rawIdx, kind := d.RawOf(f)
	switch {
	case d.RawSchema().Field(rawIdx).Name == e.cfg.Target,
		candLevel == features.Level1 && kind != features.IsSame,
		candLevel == features.Level2 && kind == features.Base:
		return false
	}
	return !pairVec[f].IsMissing()
}

// scorableMask is the set of scorable derived features: all that
// Algorithm 1 can read of a pair matrix for this pair of interest, and so
// the only ones materialize needs to fill. It is built in want's storage
// when that has room.
func (e *Explainer) scorableMask(want bitset.Set, pairVec []joblog.Value) bitset.Set {
	want = bitset.Reuse(want, len(pairVec))
	clear(want)
	for f := range pairVec {
		if e.scorable(f, pairVec) {
			want.SetBit(f)
		}
	}
	return want
}

// scoreFeature computes the best applicable predicate over one derived
// feature f for one scoring round — the per-feature body of Algorithm 1
// line 5 — with its support over the working set. ok is false when the
// feature is not scorable (target-derived, above the clause feature
// level, inapplicable to the pair of interest), is already in the clause
// or admits no split.
//
// Every feature is scored from the class counts of its values over the
// working set, in the order the split's tie-break reads them: an issame
// or compare feature's from popcounts of its code planes, in the fixed
// string order of its codes (F < T, GT < LT < SIM); a base or diff
// column's from its value index (features.ValueIndex), whose values are
// already in order, ascending or by rendered string. Only the winning
// value is rendered. The atom's support is the sum of the counts of the
// values it selects: the threshold's side of a numeric column's values,
// else the named value, or every other one for !=.
func (e *Explainer) scoreFeature(in *joblog.Intern, m *features.PairMatrix, ws *workingSet,
	pairVec []joblog.Value, clause pxql.Predicate, f int, sc *scoreScratch) (candidate, float64, bool) {

	if !e.scorable(f, pairVec) {
		return candidate{}, 0, false
	}
	d := e.d
	v0 := pairVec[f]
	atom := pxql.Atom{Feature: d.Schema().Field(f).Name}
	var (
		gain float64
		nums []float64 // a numeric column's values, when the atom is a threshold
		best int       // else the value the atom names
	)
	if codeOff := d.CodeOffset(f); codeOff >= 0 {
		k, val, g, ok := bestCode(d, f, m, codeOff, ws, sc)
		if !ok {
			return candidate{}, 0, false
		}
		best, atom.Value, gain = k, joblog.Str(val), g
	} else {
		vi := m.Values(f)
		if vi == nil {
			// Diff of a numeric raw and compare of a nominal one are
			// missing on every pair: no split.
			if d.NumOffset(f) < 0 && d.SymOffset(f) < 0 {
				return candidate{}, 0, false
			}
			panic(fmt.Sprintf("core: feature %s has no value index; fill the matrix with FillSample", atom.Feature))
		}
		sc.counts = valueCounts(sc.counts, vi, ws)
		if d.NumOffset(f) >= 0 {
			thr, g, ok := bestThreshold(vi, m.NumCol(d.NumOffset(f)), ws, sc)
			if !ok {
				return candidate{}, 0, false
			}
			nums, atom.Value, gain = vi.Nums(), joblog.Num(thr), g
		} else {
			k, g, ok := dtree.BestNominalCounts(sc.counts, ws.n)
			if !ok {
				return candidate{}, 0, false
			}
			best, atom.Value, gain = k, joblog.Str(vi.String(d, in, k)), g
		}
	}
	// The split has the same gain whichever side the predicate asserts;
	// applicability picks the direction.
	switch {
	case atom.Value.Kind == joblog.Numeric && v0.Num > atom.Value.Num:
		atom.Op = pxql.OpGt
	case atom.Value.Kind == joblog.Numeric:
		atom.Op = pxql.OpLe
	case v0.Str == atom.Value.Str:
		atom.Op = pxql.OpEq
	default:
		atom.Op = pxql.OpNe
	}
	if containsAtom(clause, atom) {
		return candidate{}, 0, false
	}
	c := candidate{featIdx: f, atom: atom}
	for k, n := range sc.counts {
		holds := (k == best) != (atom.Op == pxql.OpNe)
		if nums != nil {
			holds = pxql.EvalNumOp(atom.Op, nums[k], atom.Value.Num)
		}
		if holds {
			c.sat += n.Pos + n.Neg
			c.pos += n.Pos
		}
	}
	return c, gain, true
}

// codeNames are the renderings of an issame and a compare feature's
// codes, in string order.
var codeNames = [2][]string{{"F", "T"}, {"GT", "LT", "SIM"}}

// bestCode scores an issame or compare feature from its code-plane
// triple, leaving its codes' counts in sc.counts: each code's counts are
// popcounts of its plane against the working set and its positives —
// GT's, and issame F's, what present holds beyond SIM and LT. It returns
// the winning code's index and rendering.
func bestCode(d *features.Deriver, f int, m *features.PairMatrix, codeOff int, ws *workingSet, sc *scoreScratch) (int, string, float64, bool) {
	present, sim, lt := m.CodePlanes(codeOff)
	count := func(p bitset.Set) dtree.ClassCount {
		n, pos := bitset.AndCounts(p, ws.bits, ws.pos)
		return dtree.ClassCount{Pos: pos, Neg: n - pos}
	}
	all, l, s := count(present), count(lt), count(sim)
	gt := dtree.ClassCount{Pos: all.Pos - l.Pos - s.Pos, Neg: all.Neg - l.Neg - s.Neg}
	names := codeNames[1]
	counts := append(sc.counts[:0], gt, l, s)
	if _, family := d.RawOf(f); family == features.IsSame {
		names = codeNames[0]
		counts = append(counts[:0], dtree.ClassCount{Pos: gt.Pos + l.Pos, Neg: gt.Neg + l.Neg}, s)
	}
	sc.counts = counts
	best, g, ok := dtree.BestNominalCounts(counts, ws.n)
	if !ok {
		return 0, "", 0, false
	}
	return best, names[best], g, true
}

// valueCounts writes to dst the class counts of each value of vi over the
// working set: two popcounts of the value's plane, or a count per row's
// code when the column has more values than planes.
func valueCounts(dst []dtree.ClassCount, vi *features.ValueIndex, ws *workingSet) []dtree.ClassCount {
	dst = resized(dst, vi.Len())
	if vi.Planar() {
		for k := range dst {
			n, pos := bitset.AndCounts(vi.Plane(k), ws.bits, ws.pos)
			dst[k] = dtree.ClassCount{Pos: pos, Neg: n - pos}
		}
		return dst
	}
	clear(dst)
	codes := vi.Codes()
	for w, word := range ws.bits {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if c := codes[w<<6|b]; c >= 0 {
				if ws.pos[w]>>uint(b)&1 != 0 {
					dst[c].Pos++
				} else {
					dst[c].Neg++
				}
			}
		}
	}
	return dst
}

// bestThreshold scores a numeric base column from sc.counts, its values'
// counts over the working set. A working set holding both −0 and +0 (the
// index keeps them apart, −0 first) is the one case counts cannot score:
// which zero a cut against the run of both yields depends on how a sort
// leaves them, so its values and labels are gathered from col and ws.pos
// in row order and sorted as dtree.BestThresholdF sorts them.
func bestThreshold(vi *features.ValueIndex, col []float64, ws *workingSet, sc *scoreScratch) (float64, float64, bool) {
	nums := vi.Nums()
	for k := 1; k < len(nums); k++ {
		if nums[k] == nums[k-1] && sc.counts[k].Pos+sc.counts[k].Neg > 0 && sc.counts[k-1].Pos+sc.counts[k-1].Neg > 0 {
			vals, labels := resized(sc.vals, ws.n), resized(sc.labels, ws.n)
			j := 0
			for w, word := range ws.bits {
				for ; word != 0; word &= word - 1 {
					b := bits.TrailingZeros64(word)
					vals[j], labels[j] = col[w<<6|b], ws.pos[w]>>uint(b)&1 != 0
					j++
				}
			}
			sc.vals, sc.labels = vals, labels
			return dtree.BestThresholdF(vals, labels, &sc.thr)
		}
	}
	return dtree.BestThresholdCounts(nums, sc.counts, ws.n)
}

func containsAtom(p pxql.Predicate, a pxql.Atom) bool {
	for _, x := range p {
		if x.Feature == a.Feature && x.Op == a.Op && x.Value.Equal(a.Value) {
			return true
		}
	}
	return false
}
