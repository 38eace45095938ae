package baselines

import (
	"fmt"
	"sort"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// simButDiffTarget is the raw feature excluded from SimButDiff's isSame
// feature set: it is the query subject.
const simButDiffTarget = "duration"

// similarityThreshold is the paper's s = 0.9: a training pair is
// "similar" when it agrees with the pair of interest on at least s of the
// isSame features.
const similarityThreshold = 0.9

// SimButDiffConfig tunes the SimButDiff baseline.
type SimButDiffConfig struct {
	// MaxPairs caps related-pair enumeration (0 = unlimited).
	MaxPairs int
	// Seed drives the (capped) enumeration.
	Seed int64
	// Parallelism bounds the worker goroutines of related-pair
	// enumeration (<= 0 means GOMAXPROCS); the result is identical at
	// every setting.
	Parallelism int
}

// SimButDiff implements Algorithm 2: among training pairs similar to the
// pair of interest on the isSame features, it scores each feature by the
// fraction of pairs that disagree with the pair of interest on it AND
// performed as expected — a per-feature what-if analysis — and explains
// with the top-w features at the pair's own values (Section 5.2).
type SimButDiff struct {
	log *joblog.Log
	d   *features.Deriver
	cfg SimButDiffConfig
}

// NewSimButDiff builds the baseline over a log.
func NewSimButDiff(log *joblog.Log, cfg SimButDiffConfig) (*SimButDiff, error) {
	if log == nil || log.Len() < 2 {
		return nil, fmt.Errorf("baselines: need at least 2 records")
	}
	return &SimButDiff{
		log: log,
		d:   features.NewDeriver(log.Schema, features.Level3),
		cfg: cfg,
	}, nil
}

// Explain runs Algorithm 2 for the query.
func (s *SimButDiff) Explain(q *pxql.Query, width int) (*core.Explanation, error) {
	// isSame feature set, excluding the target's. derivedIdx addresses the
	// feature in the columnar engine, so the similarity and what-if loops
	// below compare packed symbols instead of boxed values.
	type sameFeat struct {
		name       string
		rawIdx     int
		derivedIdx int
	}
	var feats []sameFeat
	raw := s.d.RawSchema()
	for i := 0; i < raw.Len(); i++ {
		if raw.Field(i).Name == simButDiffTarget {
			continue
		}
		name := features.Name(raw.Field(i).Name, features.IsSame)
		di := s.d.Schema().MustIndex(name)
		feats = append(feats, sameFeat{name, i, di})
	}

	// Pair-of-interest isSame vector, as symbols.
	cols := s.log.Columns()
	ia, okA := s.log.FindIndex(q.ID1)
	ib, okB := s.log.FindIndex(q.ID2)
	if !okA || !okB {
		return nil, fmt.Errorf("baselines: pair of interest (%q, %q) not in log", q.ID1, q.ID2)
	}
	poi := make([]uint64, len(feats))
	for i, f := range feats {
		poi[i] = s.d.DeriveSym(cols, ia, ib, f.derivedIdx)
	}

	// Lines 1-5: related pairs, reduced to isSame features, filtered to
	// those agreeing with the pair of interest on >= k features.
	related := core.RelatedPairsP(s.log, features.Level3, q, s.cfg.MaxPairs, s.cfg.Seed, s.cfg.Parallelism)
	if len(related) == 0 {
		return nil, fmt.Errorf("baselines: no related pairs for this query")
	}
	k := int(similarityThreshold * float64(len(feats)))
	type simPair struct {
		same []uint64
		exp  bool
	}
	var similar []simPair
	for _, lp := range related {
		vec := make([]uint64, len(feats))
		agree := 0
		for i, f := range feats {
			v := s.d.DeriveSym(cols, lp.IA, lp.IB, f.derivedIdx)
			vec[i] = v
			if v != features.MissingSym && poi[i] != features.MissingSym && v == poi[i] {
				agree++
			}
		}
		if agree >= k {
			similar = append(similar, simPair{same: vec, exp: !lp.Observed})
		}
	}
	if len(similar) == 0 {
		return nil, fmt.Errorf("baselines: no pairs similar to the pair of interest at threshold %v",
			similarityThreshold)
	}

	// Lines 6-12: what-if score per feature — among similar pairs that
	// disagree with the pair of interest on f, the fraction that performed
	// as expected.
	type scored struct {
		idx   int
		score float64
		d     int
	}
	var scores []scored
	for i := range feats {
		if poi[i] == features.MissingSym {
			continue // cannot assert the pair's value for this feature
		}
		disagree, expAmong := 0, 0
		for _, sp := range similar {
			v := sp.same[i]
			if v == features.MissingSym || v == poi[i] {
				continue
			}
			disagree++
			if sp.exp {
				expAmong++
			}
		}
		sc := 0.0
		if disagree > 0 {
			sc = float64(expAmong) / float64(disagree)
		}
		scores = append(scores, scored{idx: i, score: sc, d: disagree})
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("baselines: no scoreable isSame features")
	}
	sort.SliceStable(scores, func(x, y int) bool {
		if scores[x].score != scores[y].score {
			return scores[x].score > scores[y].score
		}
		// Tie-break toward features with more evidence, then by order.
		if scores[x].d != scores[y].d {
			return scores[x].d > scores[y].d
		}
		return scores[x].idx < scores[y].idx
	})

	// Lines 13-17: conjunction of the top-w features at the pair's values.
	var clause pxql.Predicate
	for _, sc := range scores {
		if len(clause) >= width {
			break
		}
		clause = append(clause, pxql.Atom{
			Feature: feats[sc.idx].name,
			Op:      pxql.OpEq,
			Value:   joblog.Str(s.d.SymString(cols.Intern(), feats[sc.idx].derivedIdx, poi[sc.idx])),
		})
	}
	return &core.Explanation{Because: clause}, nil
}
