package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

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

// NewExplainer builds an explainer over the log.
func NewExplainer(log *joblog.Log, cfg Config) (*Explainer, error) {
	cfg = cfg.withDefaults()
	if log == nil || log.Len() == 0 {
		return nil, fmt.Errorf("core: empty log")
	}
	if _, ok := log.Schema.Index(cfg.Target); !ok {
		return nil, fmt.Errorf("core: log has no target feature %q", cfg.Target)
	}
	// The deriver always exposes the full Table 1 feature set: queries may
	// mention any derived feature regardless of the configured level. The
	// level only restricts which features generated clauses may use
	// (Section 6.8), enforced in candidates().
	return &Explainer{log: log, d: features.NewDeriver(log.Schema, features.Level3), cfg: cfg}, nil
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
	x := &Explanation{}
	despite := q.Despite
	if genDespite {
		des, err := e.generateDespite(ctx, q, a, b)
		if err != nil {
			return nil, err
		}
		x.Despite = des
		despite = q.Despite.And(des)
	}

	sample, nObs, nExp, err := e.trainingSample(ctx, q, despite, "because")
	if err != nil {
		return nil, err
	}
	x.RelatedPairs = nObs + nExp
	x.TrainRelevance = 1 - float64(nObs)/float64(x.RelatedPairs)
	x.SampleSize = sample.len()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The matrix is recycled: everything below reads it, and nothing the
	// explanation keeps — atoms, thresholds, counts — points into it.
	pairVec := e.d.Vector(a, b)
	m := materialize(e.log, e.d, sample, e.scorableMask(pairVec), e.cfg.Parallelism)
	defer putMatrix(m)

	bc := newBitmapCache(m, e.cfg.Parallelism)
	bec, err := e.grow(ctx, bc, sample.labels, pairVec, e.cfg.Width)
	if err != nil {
		return nil, err
	}
	x.Because = bec

	// Training diagnostics over the sample, per clause prefix: each atom
	// fills its own bitmap (the growth cache may hold only
	// working-set-live words; the prefix compose starts from every
	// sampled pair, so it cannot reuse those), ANDs into the running
	// prefix selection, and the counts are popcounts against the label
	// bitmap. The fill passes the running prefix as the live mask: a
	// word with no surviving prefix pair may keep stale bits in sel, but
	// AndWith leaves dead prefix words dead whatever sel holds there, so
	// the restriction skips plane work without changing a single count.
	in := e.log.Columns().Intern()
	posBits := bitset.FromBools(sample.labels)
	prefix := bitset.Make(m.N)
	prefix.Ones(m.N)
	sel := bitset.Make(m.N)
	for w := 1; w <= len(bec); w++ {
		a := bec[w-1]
		idx, _ := e.d.Schema().Index(a.Feature)
		ma := newMatrixAtom(e.d, in, idx, a)
		ma.fillRange(m, 0, m.N, sel, prefix)
		prefix.AndWith(sel)
		sat := prefix.Count()
		satObs := bitset.AndCount(prefix, posBits)
		st := AtomStats{Atom: a}
		if sat > 0 {
			st.Precision = float64(satObs) / float64(sat)
		}
		if m.N > 0 {
			st.Generality = float64(sat) / float64(m.N)
		}
		x.Atoms = append(x.Atoms, st)
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
	return e.generateDespite(ctx, q, a, b)
}

func (e *Explainer) generateDespite(ctx context.Context, q *pxql.Query, a, b *joblog.Record) (pxql.Predicate, error) {
	sample, _, _, err := e.trainingSample(ctx, q, q.Despite, "despite")
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pairVec := e.d.Vector(a, b)
	m := materialize(e.log, e.d, sample, e.scorableMask(pairVec), e.cfg.Parallelism)
	defer putMatrix(m)

	// Positive class for despite generation is "performed as expected":
	// the clause should maximise relevance P(exp | des' ∧ des).
	flipped := make([]bool, len(sample.labels))
	for i, l := range sample.labels {
		flipped[i] = !l
	}
	return e.grow(ctx, newBitmapCache(m, e.cfg.Parallelism), flipped, pairVec, e.cfg.DespiteWidth)
}

// trainingSample draws Section 4.3's balanced sample of (q, despite)'s
// related pairs and reports the class counts of the set it was drawn
// from. A rank-drawable question (rankSpaceOf) is sampled by rank and its
// counts are exact; any other is walked, thinned to MaxPairs, and its
// counts are those of the kept pairs. stream names the seeds. An empty
// related set is an error: there is nothing to learn from.
func (e *Explainer) trainingSample(ctx context.Context, q *pxql.Query, despite pxql.Predicate, stream string) (
	sample *pairPlanes, nObs, nExp int64, err error) {

	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	if rs := rankSpaceOf(e.log, q, despite); rs != nil {
		if rs.nObs+rs.nExp == 0 {
			return nil, 0, 0, errNoRelated
		}
		return rs.sample(e.cfg.SampleSize, stats.DeriveSeed(e.cfg.Seed, stream+"-sample"), e.cfg.Parallelism), rs.nObs, rs.nExp, nil
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
	// it reproducible.
	return balancedSample(related, e.cfg.SampleSize, stats.DeriveRand(e.cfg.Seed, stream+"-sample")),
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
// Candidate scoring runs on selection bitmaps: each round's candidate
// atoms are evaluated once over the whole matrix into cached bitmaps
// (tile-parallel, see bitmapCache), then every candidate's precision and
// generality are two fused AND-popcounts against the working-set and
// label bitmaps, and the winner restricts the working set with one
// word-AND. The counts — and therefore the clause — are identical to
// the per-pair loops this replaces.
func (e *Explainer) grow(ctx context.Context, bc *bitmapCache, labels []bool,
	pairVec []joblog.Value, width int) (pxql.Predicate, error) {

	m := bc.m
	var clause pxql.Predicate
	cur := make([]int, m.N)
	for i := range cur {
		cur[i] = i
	}
	posBits := bitset.FromBools(labels)
	curBits := bitset.Make(m.N)
	curBits.Ones(m.N)
	subLabels := make([]bool, m.N) // the working set's labels, refilled per round

	for round := 0; round < width; round++ {
		// The round loop is the cancellation checkpoint of the growth
		// phase: each round is one bounded unit of scoring work, so a
		// cancelled query stops within a round's latency of the signal.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			break
		}
		// Stop when the remaining pairs are pure: no signal left.
		pos := bitset.AndCount(curBits, posBits)
		if pos == 0 || pos == len(cur) {
			break
		}

		subLabels = subLabels[:len(cur)]
		for k, i := range cur {
			subLabels[k] = labels[i]
		}
		ws := &workingSet{rows: cur, labels: subLabels, bits: curBits, pos: posBits}
		cands := e.candidates(m, ws, pairVec, clause)
		if len(cands) == 0 {
			break
		}

		// Cross-feature selection: percentile-normalised blend of
		// precision (P(positive | p)) and generality (P(p)). Each
		// candidate's counts compose from its bitmap by word-AND +
		// popcount; the heavy part — filling the distinct atoms' bitmaps —
		// ran tile-parallel in getAll, restricted to the working set's
		// live words. ubs[ci] bounds the candidate's possible satisfied
		// count from above (the bitmap's popcount at fill time; the
		// working set only shrinks), so a zero bound skips both fused
		// popcounts and a zero sat skips the three-way one — provably
		// the same counts either way.
		sels, ubs := bc.getAll(cands, curBits)
		precs := make([]float64, len(cands))
		gens := make([]float64, len(cands))
		for ci := range cands {
			sat := 0
			if ubs[ci] > 0 {
				sat = bitset.AndCount(sels[ci], curBits)
			}
			if sat > 0 {
				satPos := bitset.AndCount3(sels[ci], curBits, posBits)
				precs[ci] = float64(satPos) / float64(sat)
			}
			gens[ci] = float64(sat) / float64(len(cur))
		}
		precScores, genScores := stats.PercentileRanks(precs), stats.PercentileRanks(gens)
		// A variable, so 1-w rounds as float64 arithmetic does, not to the
		// exact constant 0.2: near-tied candidates rank on that last bit.
		w := precisionWeight
		best, bestScore := -1, -1.0
		for ci := range cands {
			score := w*precScores[ci] + (1-w)*genScores[ci]
			if score > bestScore {
				best, bestScore = ci, score
			}
		}
		chosen := cands[best]
		clause = append(clause, chosen.atom)

		// Restrict the working set to pairs satisfying the clause so far.
		curBits.AndWith(sels[best])
		cur = cur[:0]
		curBits.ForEach(func(i int) { cur = append(cur, i) })
	}
	return clause, nil
}

type candidate struct {
	featIdx int
	atom    pxql.Atom
	ma      matrixAtom
}

// workingSet is one growth round's surviving pairs in the forms scoring
// reads: their matrix rows in ascending order with the labels in step,
// and the same rows as a bitmap beside the positive rows of the whole
// matrix, which code planes are counted against.
type workingSet struct {
	rows   []int
	labels []bool
	bits   bitset.Set
	pos    bitset.Set
}

// candidates builds the best applicable predicate per feature by
// information gain (Algorithm 1 line 5) — the algorithm's inner loop,
// scored concurrently across features straight off the pair-matrix
// columns: numeric features read a flat float column, nominal features
// count packed symbols or popcount code planes and only decode the few
// distinct values for the deterministic string-ordered tie-break. Results
// land in a per-feature slot and are compacted in schema order
// afterwards, so the candidate list is independent of scheduling.
// Features derived from the query target are excluded, as are features
// whose pair-of-interest value is missing (no applicable predicate
// exists) and atoms already in the clause.
func (e *Explainer) candidates(m *features.PairMatrix, ws *workingSet,
	pairVec []joblog.Value, clause pxql.Predicate) []candidate {

	schema := e.d.Schema()
	in := e.log.Columns().Intern()

	found := make([]*candidate, schema.Len())
	par.Do(schema.Len(), e.cfg.Parallelism, func(f int) {
		sc := scratchPool.Get().(*scoreScratch)
		defer scratchPool.Put(sc)
		atom, _, ok := e.scoreFeature(in, m, ws, pairVec, clause, f, sc)
		if !ok {
			return
		}
		found[f] = &candidate{featIdx: f, atom: atom, ma: newMatrixAtom(e.d, in, f, atom)}
	})

	var out []candidate
	for _, c := range found {
		if c != nil {
			out = append(out, *c)
		}
	}
	return out
}

// scoreScratch is one scoring goroutine's reusable buffers: the numeric
// gather and its threshold sort, the symbol probe table and the decoded
// per-value counts. Every field is overwritten before it is read, so
// which goroutine last held a scratch never shows in a result.
type scoreScratch struct {
	vals   []float64
	thr    dtree.ThresholdScratch
	syms   symTable
	counts []dtree.NominalCount
}

var scratchPool = sync.Pool{New: func() any { return new(scoreScratch) }}

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
// the only ones materialize needs to fill.
func (e *Explainer) scorableMask(pairVec []joblog.Value) bitset.Set {
	want := bitset.Make(len(pairVec))
	for f := range pairVec {
		if e.scorable(f, pairVec) {
			want.SetBit(f)
		}
	}
	return want
}

// scoreFeature computes the best applicable predicate over one derived
// feature f for one scoring round — the per-feature body of Algorithm 1
// line 5. ok is false when the feature is not scorable (target-derived,
// above the clause feature level, inapplicable to the pair of interest),
// is already in the clause or admits no split.
func (e *Explainer) scoreFeature(in *joblog.Intern, m *features.PairMatrix, ws *workingSet,
	pairVec []joblog.Value, clause pxql.Predicate, f int, sc *scoreScratch) (pxql.Atom, float64, bool) {

	if !e.scorable(f, pairVec) {
		return pxql.Atom{}, 0, false
	}
	d := e.d
	schema := d.Schema()
	v0 := pairVec[f]
	var atom pxql.Atom
	var gain float64
	if numOff := d.NumOffset(f); numOff >= 0 {
		// A working set that is still the whole sample is the column
		// itself; a strict subset gathers its rows into scratch.
		col := m.NumCol(numOff)
		vals := col
		if len(ws.rows) < len(col) {
			if cap(sc.vals) < len(ws.rows) {
				sc.vals = make([]float64, len(ws.rows))
			}
			vals = sc.vals[:len(ws.rows)]
			for k, i := range ws.rows {
				vals[k] = col[i]
			}
		}
		thr, g, ok := dtree.BestThresholdF(vals, ws.labels, &sc.thr)
		if !ok {
			return pxql.Atom{}, 0, false
		}
		op := pxql.OpLe
		if v0.Num > thr {
			op = pxql.OpGt
		}
		atom = pxql.Atom{Feature: schema.Field(f).Name, Op: op, Value: joblog.Num(thr)}
		gain = g
	} else {
		val, g, ok := bestNominalSyms(d, in, f, m, ws, sc)
		if !ok {
			return pxql.Atom{}, 0, false
		}
		// The split on value v* has the same gain whichever side the
		// predicate asserts; applicability picks the direction.
		op := pxql.OpEq
		if v0.Str != val {
			op = pxql.OpNe
		}
		atom = pxql.Atom{Feature: schema.Field(f).Name, Op: op, Value: joblog.Str(val)}
		gain = g
	}
	if containsAtom(clause, atom) {
		return pxql.Atom{}, 0, false
	}
	return atom, gain, true
}

// symCount is one distinct symbol's class counts.
type symCount struct {
	sym      uint64
	pos, neg int
}

// symTable counts class labels per symbol without a map: an
// open-addressed probe table (slot holds 1 + the symbol's index in ents,
// 0 when empty) over a dense entry list in first-appearance order. It
// doubles whenever it is more than half full, so a probe sequence always
// ends, and it keeps its capacity between columns.
type symTable struct {
	slot []int32
	ents []symCount
}

// symHash spreads a packed symbol over the table (Fibonacci hashing; the
// low bits of a diff pack are one side's intern ID only).
func symHash(sym uint64, mask int) int {
	return int((sym*0x9e3779b97f4a7c15)>>32) & mask
}

func (t *symTable) reset() {
	if t.slot == nil {
		t.slot = make([]int32, 64)
	}
	clear(t.slot)
	t.ents = t.ents[:0]
}

// probe returns sym's slot: the one that holds it, or the empty one it
// would take.
func (t *symTable) probe(sym uint64) int {
	mask := len(t.slot) - 1
	h := symHash(sym, mask)
	for t.slot[h] != 0 && t.ents[t.slot[h]-1].sym != sym {
		h = (h + 1) & mask
	}
	return h
}

// at returns the entry of sym, adding it on first sight. The pointer is
// valid until the next call.
func (t *symTable) at(sym uint64) *symCount {
	h := t.probe(sym)
	if t.slot[h] == 0 {
		if 2*(len(t.ents)+1) > len(t.slot) {
			t.slot = make([]int32, 2*len(t.slot))
			for i := range t.ents {
				t.slot[t.probe(t.ents[i].sym)] = int32(i + 1)
			}
			h = t.probe(sym)
		}
		t.ents = append(t.ents, symCount{sym: sym})
		t.slot[h] = int32(len(t.ents))
	}
	return &t.ents[t.slot[h]-1]
}

// bestNominalSyms scores one nominal feature's matrix store for
// dtree.BestNominalFromCounts. Class counts come per code or per packed
// symbol: a code-plane triple's (every issame feature, and compare of a
// numeric raw) are popcounts of each plane against the working set and
// its positives; base and diff columns count into the scratch probe
// table. Then the few distinct symbols are decoded, sorted by rendered
// string and merged where equal — issame renders both LT and GT as F,
// and distinct diff symbols may render identically when a value contains
// the arrow — so the scoring and its string-ordered tie-break see values,
// not symbols. A feature without storage (missing on every pair) admits
// no split.
func bestNominalSyms(d *features.Deriver, in *joblog.Intern, featIdx int,
	m *features.PairMatrix, ws *workingSet, sc *scoreScratch) (string, float64, bool) {

	counts := sc.counts[:0]
	symOff := d.SymOffset(featIdx)
	switch codeOff := d.CodeOffset(featIdx); {
	case codeOff >= 0:
		present, sim, lt := m.CodePlanes(codeOff)
		var tot, pos [features.SymGT + 1]int
		tot[features.SymLT], pos[features.SymLT] = bitset.AndCount(lt, ws.bits), bitset.AndCount3(lt, ws.bits, ws.pos)
		tot[features.SymSIM], pos[features.SymSIM] = bitset.AndCount(sim, ws.bits), bitset.AndCount3(sim, ws.bits, ws.pos)
		tot[features.SymGT] = bitset.AndCount(present, ws.bits) - tot[features.SymLT] - tot[features.SymSIM]
		pos[features.SymGT] = bitset.AndCount3(present, ws.bits, ws.pos) - pos[features.SymLT] - pos[features.SymSIM]
		for c := range tot {
			if tot[c] > 0 {
				counts = append(counts, dtree.NominalCount{
					Value: d.SymString(in, featIdx, uint64(c)), Pos: pos[c], Neg: tot[c] - pos[c]})
			}
		}
	case symOff < 0:
		return "", 0, false
	default:
		col := m.SymCol(symOff)
		t := &sc.syms
		t.reset()
		for k, i := range ws.rows {
			s := col[i]
			if s == features.MissingSym {
				continue
			}
			e := t.at(s)
			if ws.labels[k] {
				e.pos++
			} else {
				e.neg++
			}
		}
		for _, e := range t.ents {
			counts = append(counts, dtree.NominalCount{
				Value: d.SymString(in, featIdx, e.sym), Pos: e.pos, Neg: e.neg})
		}
	}
	slices.SortFunc(counts, func(a, b dtree.NominalCount) int { return strings.Compare(a.Value, b.Value) })
	merged := counts[:0]
	for _, c := range counts {
		if n := len(merged); n > 0 && merged[n-1].Value == c.Value {
			merged[n-1].Pos += c.Pos
			merged[n-1].Neg += c.Neg
			continue
		}
		merged = append(merged, c)
	}
	sc.counts = counts
	return dtree.BestNominalFromCounts(merged, len(ws.rows))
}

func containsAtom(p pxql.Predicate, a pxql.Atom) bool {
	for _, x := range p {
		if x.Feature == a.Feature && x.Op == a.Op && x.Value.Equal(a.Value) {
			return true
		}
	}
	return false
}
