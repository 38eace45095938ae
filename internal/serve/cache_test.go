package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFollowerOutlivesCancelledLeader pins that a collapsed follower
// does not inherit its leader's cancellation: the leader's flight ends
// with context.Canceled (its client hung up) after the follower joined,
// and the follower, whose own context is live, computes the answer
// itself instead of failing with the leader's error.
func TestFollowerOutlivesCancelledLeader(t *testing.T) {
	c := newExpCache(4)
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), "k", func() (any, error) {
			close(started)
			for c.stats().Collapsed == 0 {
				time.Sleep(time.Millisecond)
			}
			return nil, context.Canceled
		})
		leaderErr <- err
	}()
	<-started

	v, shared, err := c.do(context.Background(), "k", func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" || shared {
		t.Fatalf("follower got (%v, shared=%v, %v), want its own computation's (fresh, shared=false, <nil>)", v, shared, err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	if s := c.stats(); s.Misses != 2 || s.Entries != 1 {
		t.Errorf("cache stats %+v, want two computations and the follower's answer cached", s)
	}
}
