package core

// The scorable mask: materialize fills only the derived features
// Algorithm 1 can score for the pair of interest, and nothing else may
// read the rest.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// TestFillSampleSkipsUnscorable holds the masked fill to the full one
// on questions over the amplified sweep (the full 37-raw schema under the
// blocked template) and over oracle logs (missing and NaN cells, so
// pairs of interest miss features), at every feature level. Every column
// and triple of a wanted feature must equal the full fill's; on the sweep
// the mask must skip numeric base columns; and once every column no
// wanted feature shares is poisoned, growth must choose from the masked
// matrix the clause it chooses from the full one — plain, and with the
// flipped labels of despite generation.
func TestFillSampleSkipsUnscorable(t *testing.T) {
	ctx := context.Background()
	type question struct {
		log *joblog.Log
		q   *pxql.Query
	}
	sweep := amplifiedSweep(t, 4)
	var qs []question
	for _, q := range sweepQuestions(t, sweep, 6) {
		qs = append(qs, question{sweep, q})
	}
	rng := rand.New(rand.NewSource(46))
	for len(qs) < 30 {
		log := oracleLog(rng)
		q := oracleQuery(nil)
		d := features.NewDeriver(log.Schema, features.Level3)
		recs := records(log)
		for _, i := range rng.Perm(len(recs)) {
			j := rng.Intn(len(recs))
			if i != j && q.Observed.EvalPair(d, recs[i], recs[j]) {
				q.ID1, q.ID2 = recs[i].ID, recs[j].ID
				qs = append(qs, question{log, q})
				break
			}
		}
	}
	skippedBase := 0
	for qi, qq := range qs {
		level := features.Level(1 + qi%3)
		e, err := NewExplainer(qq.log, Config{Level: level, Exec: Exec{Parallelism: 2}})
		if err != nil {
			t.Fatal(err)
		}
		a, b, err := e.bind(qq.q)
		if err != nil {
			t.Fatal(err)
		}
		sample, _, _, err := e.trainingSample(ctx, qq.q, qq.q.Despite, "because")
		if err == errNoRelated {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pairVec := e.d.Vector(a, b)
		want := e.scorableMask(pairVec)
		cols := qq.log.Columns()
		full := e.d.NewPairMatrix(sample.len())
		full.FillSample(cols, sample.a, sample.b, nil, 1)
		masked := e.d.NewPairMatrix(sample.len())
		masked.FillSample(cols, sample.a, sample.b, want, 2)
		for f := range pairVec {
			if !want.Get(f) {
				if level == features.Level3 && qq.log == sweep && e.d.NumOffset(f) >= 0 {
					skippedBase++
				}
				continue
			}
			name := e.d.Schema().Field(f).Name
			if off := e.d.NumOffset(f); off >= 0 &&
				!slices.EqualFunc(masked.NumCol(off), full.NumCol(off), sameBits) {
				t.Fatalf("question %d: wanted column %s differs from the full fill", qi, name)
			}
			if off := e.d.SymOffset(f); off >= 0 && !slices.Equal(masked.SymCol(off), full.SymCol(off)) {
				t.Fatalf("question %d: wanted column %s differs from the full fill", qi, name)
			}
			if off := e.d.CodeOffset(f); off >= 0 {
				mp, ms, ml := masked.CodePlanes(off)
				fp, fs, fl := full.CodePlanes(off)
				if !slices.Equal(mp, fp) || !slices.Equal(ms, fs) || !slices.Equal(ml, fl) {
					t.Fatalf("question %d: wanted triple of %s differs from the full fill", qi, name)
				}
			}
		}
		masked.PoisonSkipped(want)
		flipped := make([]bool, len(sample.labels))
		for i, l := range sample.labels {
			flipped[i] = !l
		}
		for _, labels := range [][]bool{sample.labels, flipped} {
			wantClause, err := e.grow(ctx, newBitmapCache(full, 1), labels, pairVec, e.cfg.Width)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.grow(ctx, newBitmapCache(masked, 2), labels, pairVec, e.cfg.Width)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != wantClause.String() {
				t.Errorf("question %d (L%d): masked, poisoned matrix grows %q, full matrix %q", qi, level, got, wantClause)
			}
		}
	}
	if skippedBase == 0 {
		t.Error("the mask skipped no numeric base column of a sweep question")
	}
}

// sameBits is float equality by bits, so NaN equals NaN.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
