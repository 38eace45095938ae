package serve

// The explanation cache is an LRU over fully-rendered explanation
// results, with singleflight collapse: concurrent requests for the same
// key share one computation instead of racing N identical pipelines.
// Keys embed the store watermark, so an append naturally invalidates
// every cached answer — stale entries are never served, they just age
// out of the LRU.
//
// The cache is hand-rolled (container/list + a flight table) because the
// module deliberately has no dependencies; the semantics match
// golang.org/x/sync/singleflight where they overlap, with one addition:
// waiters are context-aware, so a follower whose deadline expires stops
// waiting without disturbing the leader's computation, and a follower
// whose leader's context ended first computes for itself.

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// cacheEntry is one resident LRU value.
type cacheEntry struct {
	key string
	val any
}

// expCache is the watermark-keyed explanation cache.
type expCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recent
	items   map[string]*list.Element // key -> entry
	flights map[string]*flight

	hits, misses, collapsed int64
}

func newExpCache(capacity int) *expCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &expCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// do returns the cached value for key, joining an in-progress
// computation when one exists, and otherwise runs compute as the
// flight's leader. shared is true when the caller did not run compute
// itself (a cache hit or a collapsed follower). Errors are never
// cached: the next request for the key computes afresh. A follower
// whose ctx ends while waiting returns ctx.Err() — the leader keeps
// computing for everyone else. The leader computes under its own
// request's context, which the key leaves out, so a flight that ended
// on the leader's cancellation or deadline is not the follower's
// answer: a follower whose own ctx is still live joins or leads a
// fresh flight instead.
func (c *expCache) do(ctx context.Context, key string, compute func() (any, error)) (val any, shared bool, err error) {
	c.mu.Lock()
	for {
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*cacheEntry).val
			c.hits++
			c.mu.Unlock()
			return v, true, nil
		}
		f, ok := c.flights[key]
		if !ok {
			break
		}
		c.collapsed++
		c.mu.Unlock()
		select {
		case <-f.done:
			leaderGaveUp := errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)
			if !leaderGaveUp || ctx.Err() != nil {
				return f.val, true, f.err
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		c.mu.Lock()
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

func (c *expCache) insertLocked(key string, val any) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// cacheStats is a point-in-time counter snapshot for /api/stats.
type cacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Collapsed int64 `json:"collapsed"`
}

func (c *expCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Collapsed: c.collapsed,
	}
}
