package core

// The workspace free list: a warm explanation draws its sample, fills
// its matrix and grows its clause in recycled buffers; overlapping explanations each own one; and a buffer read
// after its workspace went back changes an answer.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"perfxplain/internal/collect"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// paperSweep is the paper's 540-job sweep (Table 2's grid).
func paperSweep(t testing.TB) *joblog.Log {
	t.Helper()
	res, err := collect.DefaultSweep(1).Collect()
	if err != nil {
		t.Fatal(err)
	}
	return res.Jobs
}

// TestExplainSteadyStateAllocs bounds what a warm explanation allocates
// on the 540-job sweep, at its current counts plus a fifth. A rank-drawn
// Explain allocated 775 times when every question made its own sample,
// matrix, bitmaps and growth state and only one idle matrix was kept, 65
// with a recycled workspace, 55 once the walk's clauses were compiled
// once per walk, and 36–37 since a round fills only its winner's bitmap
// and the diagnostics read the winners' counts. An ExplainWithDespite,
// whose because phase walks, allocated 1 516, 319, 152 and now 122. The
// race detector drops a quarter of sync.Pool's puts (the walk's tile and
// result pools), so a race build counts against its own figures: 1 209,
// 66, 55 and now 37–38; 2 261, 405–425, 244 and now 200–214.
func TestExplainSteadyStateAllocs(t *testing.T) {
	plainBound, despiteBound := 44, 146
	if raceEnabled {
		plainBound, despiteBound = 45, 256
	}
	log := paperSweep(t)
	q := sweepQuestions(t, log, 1)[0]
	if rankSpaceOf(log, q, q.Despite) == nil {
		t.Fatal("the question is not rank-drawn")
	}
	e, err := NewExplainer(log, Config{Seed: 3, Exec: Exec{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain := testing.AllocsPerRun(20, func() {
		if _, err := e.Explain(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	despite := testing.AllocsPerRun(20, func() {
		if _, err := e.ExplainWithDespite(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a warm Explain allocates %.0f times, ExplainWithDespite %.0f", plain, despite)
	if plain > float64(plainBound) {
		t.Errorf("a warm Explain allocates %.0f times, want at most %d", plain, plainBound)
	}
	if despite > float64(despiteBound) {
		t.Errorf("a warm ExplainWithDespite allocates %.0f times, want at most %d", despite, despiteBound)
	}
}

// TestConcurrentExplainsOwnTheirWorkingSets runs twice GOMAXPROCS
// explanations at once, each a distinct question (its own pair of
// interest, seed and mode), at Parallelism 1 and 2: every answer must
// equal the one the question gets alone, so no two explanations ever
// share a workspace, and the free list never holds more idle workspaces
// than GOMAXPROCS. Serial explanations after it reuse one workspace.
func TestConcurrentExplainsOwnTheirWorkingSets(t *testing.T) {
	log := amplifiedSweep(t, 20)
	qs := sweepQuestions(t, log, 6)
	n := 2 * runtime.GOMAXPROCS(0)
	ctx := context.Background()
	for _, p := range []int{1, 2} {
		answer := func(i int) string {
			e, err := NewExplainer(log, Config{Seed: int64(i), Exec: Exec{Parallelism: p}})
			if err != nil {
				t.Error(err)
				return ""
			}
			var x *Explanation
			if q := qs[i%len(qs)]; i%2 == 0 {
				x, err = e.Explain(ctx, q)
			} else {
				x, err = e.ExplainWithDespite(ctx, q)
			}
			if err != nil {
				t.Error(err)
				return ""
			}
			return fmt.Sprintf("%#v", *x)
		}
		want := make([]string, n)
		for i := range want {
			want[i] = answer(i)
		}
		got := make([]string, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					got[g] = answer(g)
					if idle := len(workFree); idle > runtime.GOMAXPROCS(0) {
						t.Errorf("%d idle workspaces, GOMAXPROCS is %d", idle, runtime.GOMAXPROCS(0))
					}
				}
			}()
		}
		wg.Wait()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parallelism %d, question %d: concurrent answer\n%s\nserial\n%s", p, i, got[i], want[i])
			}
		}
	}
	for len(workFree) > 0 {
		<-workFree
	}
	e, err := NewExplainer(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Explain(ctx, qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if idle := len(workFree); idle != 1 {
		t.Errorf("serial explanations left %d idle workspaces, want 1", idle)
	}
}

// TestReleasedWorkspaceIsPoisoned grows a clause in a workspace, poisons
// it as a race build's release does, and grows again from what it then
// holds — what an explanation reading its workspace after giving it
// back would see: the clause must change. Under the race detector,
// release itself must have poisoned the workspace.
func TestReleasedWorkspaceIsPoisoned(t *testing.T) {
	log := amplifiedSweep(t, 20)
	ctx := context.Background()
	for qi, q := range sweepQuestions(t, log, 3) {
		e, err := NewExplainer(log, Config{Seed: int64(qi)})
		if err != nil {
			t.Fatal(err)
		}
		a, b, err := e.bind(q)
		if err != nil {
			t.Fatal(err)
		}
		pairVec := e.d.Vector(a, b)
		grow := func(ws *workspace) pxql.Predicate {
			clause, _, err := e.grow(ctx, &ws.m, &ws.g, ws.sample.labels, pairVec, e.cfg.Width)
			if err != nil {
				t.Fatal(err)
			}
			return clause
		}
		ws := new(workspace)
		sample, _, _, err := e.trainingSample(ctx, q, q.Despite, "because", ws)
		if err != nil {
			t.Fatal(err)
		}
		e.materialize(ws, sample, pairVec)
		clause := grow(ws)
		ws.poison()
		if poisoned := grow(ws); reflect.DeepEqual(poisoned, clause) {
			t.Errorf("question %d: the poisoned workspace grows %v, the clause it grew before", qi, clause)
		}

		ws = new(workspace)
		sample, _, _, err = e.trainingSample(ctx, q, q.Despite, "because", ws)
		if err != nil {
			t.Fatal(err)
		}
		labels := slices.Clone(sample.labels)
		ws.release()
		if poisoned := !slices.Equal(ws.sample.labels, labels); poisoned != raceEnabled {
			t.Errorf("question %d: release poisoned the workspace: %v; race detector on: %v", qi, poisoned, raceEnabled)
		}
		for len(workFree) > 0 {
			<-workFree
		}
	}
}
