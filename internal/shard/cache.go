package shard

// The worker-side half of content-addressed slice shipping. Planners
// hash every log slice they cut (core.LogSlice); a worker that receives
// a full slice decodes it once — log and columnar view — and keeps the
// decoded form keyed by hash. When the
// coordinator later ships a hash-only reference (it tracks per
// connection which hashes it has already sent), the worker resolves it
// from the cache; if eviction has dropped the entry, the worker answers
// with a CacheMiss result and the coordinator re-ships the payload. The
// cache can therefore never change output, only bytes on the wire: a
// hit hands the executor the decoded form of exactly the bytes a full
// ship would have carried, and a miss degrades to a full ship.
//
// One sliceCache belongs to one worker loop (one subprocess, one
// accepted socket connection, one in-proc worker goroutine) and is
// accessed serially by it — no locking.

import (
	"log"
	"os"
	"strconv"
	"strings"

	"perfxplain/internal/core"
)

// DefaultCacheBytes bounds each worker's decoded-slice cache. Workers
// read the PXQL_SHARD_CACHE_BYTES environment variable at startup to
// override it (0 disables caching); tests set this variable directly
// for in-process listeners.
var DefaultCacheBytes = int64(256 << 20)

// CacheBytesEnv is the environment variable overriding DefaultCacheBytes
// in worker processes.
const CacheBytesEnv = "PXQL_SHARD_CACHE_BYTES"

// cacheBudget resolves the worker's cache budget from the environment.
// A malformed or negative value used to be swallowed silently (falling
// back for parse errors, and a negative budget behaving like 0); both
// now warn once at worker startup and fall back to the default — a
// typo'd override should be loud, not a mystery slowdown.
func cacheBudget() int64 {
	v := strings.TrimSpace(os.Getenv(CacheBytesEnv))
	if v == "" {
		return DefaultCacheBytes
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		log.Printf("shard: ignoring malformed %s=%q: %v", CacheBytesEnv, v, err)
		return DefaultCacheBytes
	}
	if n < 0 {
		log.Printf("shard: ignoring negative %s=%d", CacheBytesEnv, n)
		return DefaultCacheBytes
	}
	return n
}

type cacheEntry struct {
	data  *core.SliceData
	size  int64
	stamp int64 // last-use tick for LRU eviction
}

// sliceCache is a byte-budgeted LRU of decoded slices.
type sliceCache struct {
	budget  int64
	used    int64
	tick    int64
	entries map[string]*cacheEntry
}

func newSliceCache(budget int64) *sliceCache {
	return &sliceCache{budget: budget, entries: make(map[string]*cacheEntry)}
}

// get returns the cached decoded slice, refreshing its LRU stamp, or
// nil on a miss.
func (c *sliceCache) get(hash string) *core.SliceData {
	e := c.entries[hash]
	if e == nil {
		return nil
	}
	c.tick++
	e.stamp = c.tick
	return e.data
}

// put caches a decoded slice, evicting least-recently-used entries
// until the budget holds. A slice bigger than the whole budget is not
// cached at all — the coordinator's miss-retry path keeps re-shipping
// it, trading bytes for bounded worker memory. A non-positive budget
// disables the cache entirely: the old `size > budget` test alone let
// zero-size slices (an empty shard's slice estimates to 0 bytes) slip
// into a "disabled" cache and be served from it.
func (c *sliceCache) put(hash string, data *core.SliceData, size int64) {
	if c.budget <= 0 || hash == "" || size > c.budget {
		return
	}
	if old := c.entries[hash]; old != nil {
		c.used -= old.size
		delete(c.entries, hash)
	}
	for c.used+size > c.budget && len(c.entries) > 0 {
		var oldest string
		var oldestStamp int64
		first := true
		// Stamps are unique (tick increments on every touch), so the
		// minimum found is the same whatever order the scan visits.
		//pxql:orderinvariant
		for h, e := range c.entries {
			if first || e.stamp < oldestStamp {
				oldest, oldestStamp, first = h, e.stamp, false
			}
		}
		c.used -= c.entries[oldest].size
		delete(c.entries, oldest)
	}
	c.tick++
	c.entries[hash] = &cacheEntry{data: data, size: size, stamp: c.tick}
	c.used += size
}

// workerState is the per-worker-loop protocol state: the slice cache
// plus a one-entry memo of the last combined segment view. Segmented
// specs at one watermark all carry the same slice list, so every task
// after the first reuses the concatenated log and columnar planes
// instead of rebuilding them — the memo is keyed on the joined segment
// hashes and rolls forward naturally when the watermark advances.
type workerState struct {
	cache   *sliceCache
	combKey string
	comb    *core.SliceData
}

func newWorkerState() *workerState {
	return &workerState{cache: newSliceCache(cacheBudget())}
}

// load resolves the task's slices into the one decoded view its spec
// runs against: the combined whole-log view of its segments. miss
// reports a reference the cache no longer holds — any evicted segment
// fails the whole frame, and the coordinator clears its shipped marks
// for every reference in it and re-ships in full.
func (ws *workerState) load(t *Task) (data *core.SliceData, miss bool, err error) {
	ss := t.slices()
	datas := make([]*core.SliceData, len(ss))
	for i := range ss {
		if datas[i], miss, err = ws.resolve(&ss[i]); miss || err != nil {
			return nil, miss, err
		}
	}
	data, err = ws.combine(ss, datas)
	return data, false, err
}

// resolve produces the decoded form of a spec's slice: a reference
// frame resolves from the cache (miss reports CacheMiss to the
// coordinator), a payload frame decodes and populates the cache.
func (ws *workerState) resolve(s *core.LogSlice) (data *core.SliceData, miss bool, err error) {
	if s.Ref {
		if d := ws.cache.get(s.Hash); d != nil {
			return d, false, nil
		}
		return nil, true, nil
	}
	d, err := s.Data()
	if err != nil {
		return nil, false, err
	}
	ws.cache.put(s.Hash, d, int64(s.SizeEstimate()))
	return d, false, nil
}

// combine concatenates the decoded segments of one watermark snapshot
// into a single combined view, memoizing on the joined segment hashes.
// Unhashed slices (nothing content-addresses them) combine without
// memoization.
func (ws *workerState) combine(ss []core.LogSlice, datas []*core.SliceData) (*core.SliceData, error) {
	key := ""
	for _, s := range ss {
		if s.Hash == "" {
			key = ""
			break
		}
		key += s.Hash
	}
	if key != "" && key == ws.combKey && ws.comb != nil {
		return ws.comb, nil
	}
	d, err := core.CombineSlices(datas)
	if err != nil {
		return nil, err
	}
	if key != "" {
		ws.combKey, ws.comb = key, d
	}
	return d, nil
}
