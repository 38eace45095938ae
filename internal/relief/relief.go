// Package relief implements RReliefF attribute estimation
// (Robnik-Šikonja & Kononenko, "An Adaptation of Relief for Attribute
// Estimation in Regression", ICML 1997 — the paper PerfXplain cites) for
// numeric targets such as job duration. The RuleOfThumb baseline (paper
// Section 5.1) uses these weights as its one-time ranking of important
// features.
//
// The estimator handles numeric and nominal attributes and missing
// values. Attribute difference is normalised to [0,1]: numeric diffs are
// scaled by the observed range, nominal diffs are 0/1. Missing values use
// a probabilistic approximation: a nominal comparison against a missing
// value scores 1 minus the relative frequency of the known value (two
// missing nominals score 1 minus the sum of squared frequencies); numeric
// comparisons involving missing values score 0.5.
package relief

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"perfxplain/internal/joblog"
	"perfxplain/internal/par"
)

// Config tunes the estimator.
type Config struct {
	// K is the number of nearest neighbours consulted per sampled
	// instance. Default 10.
	K int
	// M is the number of instances sampled; 0 means all instances, in a
	// random order.
	M int
	// Sigma controls the exponential rank weighting of neighbours in
	// RReliefF; neighbour j (0-based rank) receives weight
	// exp(-((j+1)/Sigma)^2). Default 20.
	Sigma float64
	// Rand supplies determinism. Required when M > 0 or sampling order
	// matters; defaults to a fixed-seed generator.
	Rand *rand.Rand
	// Parallelism bounds the worker goroutines running the per-instance
	// neighbour searches (<= 0 means GOMAXPROCS). Weights are
	// bit-identical at every setting: searches are independent per
	// instance and land in instance-indexed slots, while the weight
	// accumulation walks instances in sample order on one goroutine.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Sigma <= 0 {
		c.Sigma = 20
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	return c
}

// stats precomputed per attribute for diff(), over the log's columnar
// view: nominal frequencies index by interned symbol, so the per-pair
// distance loops never touch a map or a string.
type attrStats struct {
	kind      joblog.Kind
	col       *joblog.Col
	min, max  float64
	freqBySym []float64 // nominal value frequency per intern ID
	sqSum     float64   // sum of squared frequencies
}

// statsMemoKey keys the attrStats memo in the columnar view.
type statsMemoKey struct{}

// computeStats returns the per-attribute statistics of the log, memoized
// on its columnar view: the estimator (and RuleOfThumb, which calls it
// repeatedly over one log) recomputes nothing until the record count
// changes, the same invalidation rule as joblog.Columns itself — the
// memo lives in the view and is rebuilt with it.
func computeStats(log *joblog.Log) []attrStats {
	cols := log.Columns()
	return cols.Memo(statsMemoKey{}, func() any {
		return buildStats(log, cols)
	}).([]attrStats)
}

func buildStats(log *joblog.Log, cols *joblog.Columns) []attrStats {
	out := make([]attrStats, log.Schema.Len())
	for i := 0; i < log.Schema.Len(); i++ {
		f := log.Schema.Field(i)
		c := cols.Col(i)
		st := attrStats{kind: f.Kind, col: c}
		if f.Kind == joblog.Numeric {
			min, max, ok := log.NumericRange(f.Name)
			if ok {
				st.min, st.max = min, max
			}
		} else {
			st.freqBySym = make([]float64, cols.Intern().Len())
			n := 0.0
			for r := 0; r < cols.Len(); r++ {
				if !c.Miss.Get(r) && !c.Alien(r) {
					st.freqBySym[c.Sym[r]]++
					n++
				}
			}
			// Sum in symbol order: deterministic, unlike ranging over the
			// string-keyed map this replaced.
			for s := range st.freqBySym {
				st.freqBySym[s] /= math.Max(n, 1)
				st.sqSum += st.freqBySym[s] * st.freqBySym[s]
			}
		}
		out[i] = st
	}
	return out
}

// nominalFreq is the relative frequency of record r's value — the boxed
// engine's st.freq[v.Str]. Alien cells (kind-mismatched values) interned
// their rendered payload like every other cell, so the lookup matches.
func (st *attrStats) nominalFreq(r int) float64 {
	return st.freqBySym[st.col.Sym[r]]
}

// diff returns the normalised difference of the attribute between
// records r1 and r2, in [0,1], addressed by index into the columns.
func (st *attrStats) diff(r1, r2 int) float64 {
	c := st.col
	m1, m2 := c.Miss.Get(r1), c.Miss.Get(r2)
	switch {
	case m1 && m2:
		if st.kind == joblog.Nominal {
			return 1 - st.sqSum
		}
		return 0.5
	case m1 || m2:
		if st.kind == joblog.Nominal {
			known := r1
			if m1 {
				known = r2
			}
			return 1 - st.nominalFreq(known)
		}
		return 0.5
	}
	if st.kind == joblog.Numeric {
		r := st.max - st.min
		if r == 0 {
			return 0
		}
		return math.Abs(c.Num[r1]-c.Num[r2]) / r
	}
	if c.Sym[r1] == c.Sym[r2] {
		return 0
	}
	return 1
}

// distance is the sum of per-attribute diffs, optionally skipping one
// attribute index (the regression target). It is the per-pair reference
// the blocked kernel reproduces exactly.
func distance(stats []attrStats, a, b int, skip int) float64 {
	var d float64
	for i := range stats {
		if i == skip {
			continue
		}
		d += stats[i].diff(a, b)
	}
	return d
}

// distBlock is the tile width of the blocked distance kernel: distances
// from one instance to distBlock others are accumulated attribute-major,
// so each attribute's plane slice is scanned contiguously while the
// partial-sum tile stays in cache.
const distBlock = 1024

// blockDistances fills dst[j-lo] with distance(stats, i, j, skip) for
// every j in [lo, hi). The accumulation is attribute-major — for each
// attribute, one contiguous sweep of its column plane over the tile —
// but per pair the attributes still add in ascending order, so the
// floating-point sums are bit-identical to the per-pair loop.
func blockDistances(stats []attrStats, i, lo, hi, skip int, dst []float64) {
	dst = dst[:hi-lo]
	for k := range dst {
		dst[k] = 0
	}
	for a := range stats {
		if a == skip {
			continue
		}
		st := &stats[a]
		for j := lo; j < hi; j++ {
			dst[j-lo] += st.diff(i, j)
		}
	}
}

// topK keeps the k nearest candidates by (distance, index), the exact
// order the full sort this replaces used: on equal distance the smaller
// index wins. Candidates are pushed in ascending index order, so a
// strict less-than against the current worst suffices for the tie-break.
// Selection is O(n·k) worst case with k ≪ n instead of O(n log n), and
// allocation-free after construction.
type topK struct {
	k   int
	idx []int
	d   []float64
}

func newTopK(k int) *topK {
	return &topK{k: k, idx: make([]int, 0, k), d: make([]float64, 0, k)}
}

// push offers candidate j at distance dj; indices must arrive in
// ascending order.
func (t *topK) push(j int, dj float64) {
	if len(t.d) == t.k {
		// Full: strictly closer than the current worst or rejected —
		// equal distance keeps the earlier (smaller) index.
		if dj >= t.d[len(t.d)-1] {
			return
		}
		t.d = t.d[:len(t.d)-1]
		t.idx = t.idx[:len(t.idx)-1]
	}
	// Insertion position: after every kept candidate with d <= dj
	// (stability on ties = ascending index order within equal distance).
	p := len(t.d)
	for p > 0 && t.d[p-1] > dj {
		p--
	}
	t.d = append(t.d, 0)
	t.idx = append(t.idx, 0)
	copy(t.d[p+1:], t.d[p:])
	copy(t.idx[p+1:], t.idx[p:])
	t.d[p] = dj
	t.idx[p] = j
}

// take returns the selected indices in (distance, index) order.
func (t *topK) take() []int { return append([]int(nil), t.idx...) }

// RegressionWeights runs RReliefF against the named numeric target field
// and returns one weight per schema field. The target's own weight is 0.
func RegressionWeights(log *joblog.Log, target string, cfg Config) ([]float64, error) {
	ti, ok := log.Schema.Index(target)
	if !ok {
		return nil, fmt.Errorf("relief: no target field %q", target)
	}
	if log.Schema.Field(ti).Kind != joblog.Numeric {
		return nil, fmt.Errorf("relief: target %q is not numeric", target)
	}
	if log.Len() < 2 {
		return nil, fmt.Errorf("relief: need at least 2 records, have %d", log.Len())
	}
	cfg = cfg.withDefaults()
	stats := computeStats(log)
	n := log.Schema.Len()

	// Rank weights for the k neighbours, normalised to sum 1.
	rankW := make([]float64, cfg.K)
	var rankSum float64
	for j := range rankW {
		rankW[j] = math.Exp(-math.Pow(float64(j+1)/cfg.Sigma, 2))
		rankSum += rankW[j]
	}
	for j := range rankW {
		rankW[j] /= rankSum
	}

	var nDC float64
	nDA := make([]float64, n)
	nDCDA := make([]float64, n)
	order := sampleOrder(log.Len(), cfg)
	missT := log.Columns().Col(ti).Miss
	// Neighbour searches — the O(instances × records × attributes) bulk —
	// run on the worker pool, one instance per unit, into instance-indexed
	// slots; the floating-point accumulation below stays serial in sample
	// order, so the weights are bit-identical at every worker count.
	neighbours := make([][]int, len(order))
	par.Do(len(order), cfg.Parallelism, func(k int) {
		if missT.Get(order[k]) {
			return
		}
		neighbours[k] = nearest(log, stats, order[k], ti, cfg.K)
	})
	mUsed := 0.0
	for k, i := range order {
		if missT.Get(i) {
			continue
		}
		neigh := neighbours[k]
		if len(neigh) == 0 {
			continue
		}
		mUsed++
		for j, nb := range neigh {
			if missT.Get(nb) {
				continue
			}
			dW := rankW[j]
			dT := stats[ti].diff(i, nb)
			nDC += dT * dW
			for a := 0; a < n; a++ {
				if a == ti {
					continue
				}
				dA := stats[a].diff(i, nb)
				nDA[a] += dA * dW
				nDCDA[a] += dT * dA * dW
			}
		}
	}
	w := make([]float64, n)
	if nDC == 0 || mUsed == 0 || mUsed == nDC {
		return w, nil // degenerate target: all weights zero
	}
	for a := 0; a < n; a++ {
		if a == ti {
			continue
		}
		w[a] = nDCDA[a]/nDC - (nDA[a]-nDCDA[a])/(mUsed-nDC)
	}
	return w, nil
}

func sampleOrder(n int, cfg Config) []int {
	order := cfg.Rand.Perm(n)
	if cfg.M > 0 && cfg.M < n {
		order = order[:cfg.M]
	}
	return order
}

// nearest returns up to k nearest neighbours of instance i by attribute
// distance, excluding the target attribute from the metric. Distances
// are computed in blocked attribute-major tiles and selected with a
// bounded top-K heap instead of sorting all n candidates; order and
// tie-breaks match the full sort exactly.
func nearest(log *joblog.Log, stats []attrStats, i, targetIdx, k int) []int {
	n := log.Len()
	tk := newTopK(k)
	var dist [distBlock]float64
	for lo := 0; lo < n; lo += distBlock {
		hi := min(lo+distBlock, n)
		blockDistances(stats, i, lo, hi, targetIdx, dist[:])
		for j := lo; j < hi; j++ {
			if j != i {
				tk.push(j, dist[j-lo])
			}
		}
	}
	return tk.take()
}

// Ranking returns the schema's field names sorted by decreasing weight,
// ties broken alphabetically for determinism.
func Ranking(schema *joblog.Schema, weights []float64) []string {
	names := make([]string, schema.Len())
	for i := range names {
		names[i] = schema.Field(i).Name
	}
	sort.SliceStable(names, func(a, b int) bool {
		wa := weights[schema.MustIndex(names[a])]
		wb := weights[schema.MustIndex(names[b])]
		if wa != wb {
			return wa > wb
		}
		return names[a] < names[b]
	})
	return names
}
