package core

import (
	"context"
	"fmt"
	"math/rand"
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
	// PrecisionWeight blends precision vs generality scores; the paper
	// uses 0.8.
	PrecisionWeight float64
	// Level selects the feature hierarchy level (Section 6.8). Default
	// Level3 (the full Table 1 set).
	Level features.Level
	// Target is the raw feature whose derived features are the query
	// subject and therefore excluded from generated clauses. Default
	// "duration".
	Target string
	// MaxPairs caps enumerated related pairs; larger pair spaces are
	// Bernoulli-subsampled. Default 200000.
	MaxPairs int
	// Seed drives sampling.
	Seed int64
	// RawScores disables the percentile-rank normalisation of precision
	// and generality (ablation; Section 4.2 explains why normalisation is
	// needed).
	RawScores bool
	// UnbalancedSample replaces the class-balanced sampler with a uniform
	// one (ablation for Section 4.3).
	UnbalancedSample bool
	// DiverseSample additionally caps how often a single execution may
	// appear in the training sample, implementing the paper's Section 4.3
	// future-work idea of biasing toward a varied set of executions.
	DiverseSample bool
	// Exec says who executes the quadratic enumeration walk and with how
	// much parallelism: Parallelism, Shards, Runner, Layout (see Exec).
	// Sampling, materialization and growth always run on the coordinator,
	// on Parallelism goroutines.
	Exec
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Width:           3,
		DespiteWidth:    3,
		SampleSize:      2000,
		PrecisionWeight: 0.8,
		Level:           features.Level3,
		Target:          "duration",
		MaxPairs:        200000,
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
	if c.PrecisionWeight == 0 {
		c.PrecisionWeight = d.PrecisionWeight
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
	if err := cfg.Exec.check(log); err != nil {
		return nil, err
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
	TrainRelevance  float64 // P(exp | des' ∧ des) on the related pairs
	SampleSize      int
	RelatedPairs    int

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

	related, err := e.enumeratePairs(ctx, q, despite, stats.DeriveSeed(e.cfg.Seed, "because-pairs"))
	if err != nil {
		return nil, err
	}
	x.RelatedPairs = related.len()
	if related.len() == 0 {
		related.release()
		return nil, fmt.Errorf("core: no related pairs in the log for this query")
	}
	x.TrainRelevance = 1 - float64(related.nObs)/float64(related.len())

	// Sampling stays serial: it is O(pairs) cheap, and drawing from one
	// sequential stream over the deterministically ordered pair set keeps
	// it reproducible. The sample is a copy, so the walks' planes can go
	// back to their pool.
	sample := e.sample(related, stats.DeriveRand(e.cfg.Seed, "because-sample"))
	related.release()
	x.SampleSize = sample.len()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The matrix is recycled: everything below reads it, and nothing the
	// explanation keeps — atoms, thresholds, counts — points into it.
	m := materialize(e.log, e.d, sample, e.cfg.Parallelism)
	defer putMatrix(m)
	pairVec := e.d.Vector(a, b)

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
	related, err := e.enumeratePairs(ctx, q, q.Despite, stats.DeriveSeed(e.cfg.Seed, "despite-pairs"))
	if err != nil {
		return nil, err
	}
	if related.len() == 0 {
		related.release()
		return nil, fmt.Errorf("core: no related pairs in the log for this query")
	}
	sample := e.sample(related, stats.DeriveRand(e.cfg.Seed, "despite-sample"))
	related.release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := materialize(e.log, e.d, sample, e.cfg.Parallelism)
	defer putMatrix(m)
	pairVec := e.d.Vector(a, b)

	// Positive class for despite generation is "performed as expected":
	// the clause should maximise relevance P(exp | des' ∧ des).
	flipped := make([]bool, len(sample.labels))
	for i, l := range sample.labels {
		flipped[i] = !l
	}
	return e.grow(ctx, newBitmapCache(m, e.cfg.Parallelism), flipped, pairVec, e.cfg.DespiteWidth)
}

func (e *Explainer) sample(ps *pairSet, rng *rand.Rand) *pairPlanes {
	switch {
	case e.cfg.UnbalancedSample:
		return uniformSample(ps, e.cfg.SampleSize, rng)
	case e.cfg.DiverseSample:
		return diverseSample(ps, e.cfg.SampleSize, e.log, rng)
	default:
		return balancedSample(ps, e.cfg.SampleSize, rng)
	}
}

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
		cands := e.candidates(m, cur, subLabels, pairVec, clause)
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
		precScores, genScores := precs, gens
		if !e.cfg.RawScores {
			precScores = stats.PercentileRanks(precs)
			genScores = stats.PercentileRanks(gens)
		}
		w := e.cfg.PrecisionWeight
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

// candidates builds the best applicable predicate per feature by
// information gain (Algorithm 1 line 5) — the algorithm's inner loop,
// scored concurrently across features straight off the pair-matrix
// columns: numeric features read a flat float column, nominal features
// count packed symbols and only decode the few distinct values for the
// deterministic string-ordered tie-break. cur addresses the working-set
// rows of m in ascending order; subLabels is parallel to cur. Results
// land in a per-feature slot and are compacted in schema order
// afterwards, so the candidate list is independent of scheduling.
// Features derived from the query target are excluded, as are features
// whose pair-of-interest value is missing (no applicable predicate
// exists) and atoms already in the clause.
func (e *Explainer) candidates(m *features.PairMatrix, cur []int, subLabels []bool,
	pairVec []joblog.Value, clause pxql.Predicate) []candidate {

	schema := e.d.Schema()
	in := e.log.Columns().Intern()

	found := make([]*candidate, schema.Len())
	par.Do(schema.Len(), e.cfg.Parallelism, func(f int) {
		sc := scratchPool.Get().(*scoreScratch)
		defer scratchPool.Put(sc)
		atom, _, ok := e.scoreFeature(in, m, cur, subLabels, pairVec, clause, f, sc)
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
// gather, the symbol probe table and the decoded per-value counts. Every
// field is overwritten before it is read, so which goroutine last held a
// scratch never shows in a result.
type scoreScratch struct {
	vals   []float64
	syms   symTable
	counts []dtree.NominalCount
}

var scratchPool = sync.Pool{New: func() any { return new(scoreScratch) }}

// scoreFeature computes the best applicable predicate over one derived
// feature f for one scoring round — the per-feature body of Algorithm 1
// line 5. ok is false when the feature is excluded (target-derived,
// above the clause feature level, inapplicable to the pair of interest,
// already in the clause) or admits no split.
func (e *Explainer) scoreFeature(in *joblog.Intern, m *features.PairMatrix, cur []int, subLabels []bool,
	pairVec []joblog.Value, clause pxql.Predicate, f int, sc *scoreScratch) (pxql.Atom, float64, bool) {

	d, candLevel := e.d, e.cfg.Level
	schema := d.Schema()
	rawIdx, kind := d.RawOf(f)
	if d.RawSchema().Field(rawIdx).Name == e.cfg.Target {
		return pxql.Atom{}, 0, false
	}
	// Honour the configured feature level (Section 6.8): level 1 may
	// use only isSame features; level 2 adds compare and diff; level 3
	// adds base features.
	if candLevel == features.Level1 && kind != features.IsSame {
		return pxql.Atom{}, 0, false
	}
	if candLevel == features.Level2 && kind == features.Base {
		return pxql.Atom{}, 0, false
	}
	v0 := pairVec[f]
	if v0.IsMissing() {
		return pxql.Atom{}, 0, false // no predicate over f can hold on the pair of interest
	}
	var atom pxql.Atom
	var gain float64
	if numOff := d.NumOffset(f); numOff >= 0 {
		// A working set that is still the whole sample is the column
		// itself; a strict subset gathers its rows into scratch.
		col := m.NumCol(numOff)
		vals := col
		if len(cur) < len(col) {
			if cap(sc.vals) < len(cur) {
				sc.vals = make([]float64, len(cur))
			}
			vals = sc.vals[:len(cur)]
			for k, i := range cur {
				vals[k] = col[i]
			}
		}
		thr, g, ok := dtree.BestThresholdF(vals, subLabels)
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
		val, g, ok := bestNominalSyms(d, in, f, m, cur, subLabels, sc)
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

// bestNominalSyms scores one symbol-plane matrix column for
// dtree.BestNominalFromCounts: class counts accumulate per packed symbol
// — issame and compare columns hold only the codes 0..2, so they count
// into a fixed array; base and diff columns count into the scratch probe
// table — then the few distinct symbols are decoded, sorted by rendered
// string and merged where equal (distinct diff symbols may render
// identically when a value contains the arrow), so the scoring and its
// string-ordered tie-break see values, not symbols.
func bestNominalSyms(d *features.Deriver, in *joblog.Intern, featIdx int,
	m *features.PairMatrix, cur []int, subLabels []bool, sc *scoreScratch) (string, float64, bool) {

	col := m.SymCol(d.SymOffset(featIdx))
	counts := sc.counts[:0]
	if _, kind := d.RawOf(featIdx); kind == features.IsSame || kind == features.Compare {
		const codes = 3 // SymF/SymT and SymLT/SymSIM/SymGT; slot 3 takes MissingSym
		var tot, pos [codes + 1]int
		for k, i := range cur {
			c := min(col[i], codes)
			tot[c]++
			pos[c] += int(bitset.B2u(subLabels[k]))
		}
		for c := 0; c < codes; c++ {
			if tot[c] > 0 {
				counts = append(counts, dtree.NominalCount{
					Value: d.SymString(in, featIdx, uint64(c)), Pos: pos[c], Neg: tot[c] - pos[c]})
			}
		}
	} else {
		t := &sc.syms
		t.reset()
		for k, i := range cur {
			s := col[i]
			if s == features.MissingSym {
				continue
			}
			e := t.at(s)
			if subLabels[k] {
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
	return dtree.BestNominalFromCounts(merged, len(cur))
}

func containsAtom(p pxql.Predicate, a pxql.Atom) bool {
	for _, x := range p {
		if x.Feature == a.Feature && x.Op == a.Op && x.Value.Equal(a.Value) {
			return true
		}
	}
	return false
}
