package shard_test

// Regression tests for Pool.Close semantics: Close is idempotent,
// terminal (batches after it fail with ErrPoolClosed instead of
// silently respawning leaked workers), and safe to call concurrently —
// with other Closes and with in-flight shard batches, which must fail
// with transport errors rather than hang, panic or corrupt results.

import (
	"errors"
	"sync"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/shard"
)

// TestPoolCloseIdempotent pins that double and concurrent Close calls
// are safe and that a closed pool refuses further batches.
func TestPoolCloseIdempotent(t *testing.T) {
	log := equivLog(30)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 4, 1)

	slices := core.LogSlices(log)
	pool := workerPool(t, 2)
	if _, err := pool.RunEnum(slices, specs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Close()
		}()
	}
	wg.Wait()
	pool.Close() // and once more, sequentially
	if _, err := pool.RunEnum(slices, specs); !errors.Is(err, shard.ErrPoolClosed) {
		t.Fatalf("batch on a closed pool returned %v, want ErrPoolClosed", err)
	}
}

// TestPoolCloseConcurrentWithBatches pins the race the ISSUE names: a
// Close racing in-flight shard tasks. Every batch must either succeed
// (it finished before the close) or fail with a typed error — and the
// pool must end up closed, with no hang and no panic. Run under -race
// in CI.
func TestPoolCloseConcurrentWithBatches(t *testing.T) {
	log := equivLog(40)
	q := equivQuery(t, log)
	specs := core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 8, 1)
	slices := core.LogSlices(log)

	for round := 0; round < 4; round++ {
		pool := workerPool(t, 2)
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for b := range errs {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				_, errs[b] = pool.RunEnum(slices, specs)
			}(b)
		}
		wg.Add(2)
		for c := 0; c < 2; c++ {
			go func() {
				defer wg.Done()
				pool.Close()
			}()
		}
		wg.Wait()
		for b, err := range errs {
			if err == nil {
				continue // batch won the race
			}
			var te *shard.TransportError
			if !errors.As(err, &te) && !errors.Is(err, shard.ErrPoolClosed) {
				t.Errorf("round %d batch %d: race with Close surfaced as %T (%v), want *TransportError or ErrPoolClosed",
					round, b, err, err)
			}
		}
		if _, err := pool.RunEnum(slices, specs); !errors.Is(err, shard.ErrPoolClosed) {
			t.Fatalf("round %d: pool not closed after concurrent Close: %v", round, err)
		}
	}
}
