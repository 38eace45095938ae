package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d", got)
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d", got)
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d", got)
	}
}

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		const n = 1000
		counts := make([]int32, n)
		Do(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestDoEmptyAndTiny(t *testing.T) {
	Do(0, 4, func(i int) { t.Error("fn called for n=0") })
	ran := false
	Do(1, 4, func(i int) { ran = true })
	if !ran {
		t.Error("fn not called for n=1")
	}
}

func TestDoPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic in worker not re-raised in caller")
		}
	}()
	Do(100, 4, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

// TestDoWorkersSlotsAreExclusive checks DoWorkers's contract: every
// index runs once, under a worker number below Workers, and no two calls
// with one number overlap — so a per-worker scratch slot has one user.
func TestDoWorkersSlotsAreExclusive(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		const n = 1000
		nw := Workers(n, workers)
		counts := make([]int32, n)
		busy := make([]int32, nw)
		DoWorkers(n, workers, func(w, i int) {
			if w < 0 || w >= nw {
				t.Errorf("workers=%d: worker number %d outside [0, %d)", workers, w, nw)
				return
			}
			if !atomic.CompareAndSwapInt32(&busy[w], 0, 1) {
				t.Errorf("workers=%d: two calls share worker %d at once", workers, w)
			}
			atomic.AddInt32(&counts[i], 1)
			atomic.StoreInt32(&busy[w], 0)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
	if got := Workers(3, 8); got != 3 {
		t.Errorf("Workers(3, 8) = %d, want 3", got)
	}
	if got := Workers(0, 8); got != 1 {
		t.Errorf("Workers(0, 8) = %d, want 1", got)
	}
}
