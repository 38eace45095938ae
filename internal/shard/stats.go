package shard

// Runtime counters for the distributed shard path: frames and bytes
// crossing transports, and the slice cache's hit/miss balance. The pool
// owns one Stats value; transports meter their streams into it and the
// round-trip logic records cache outcomes. Counters are monotonic across
// the pool's lifetime (they survive worker replacement) and exposed via
// the CLIs' -verbose flag and WorkerPool.Stats (pxbench's shard rows).

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Stats accumulates shard-runtime counters. The zero value is ready;
// methods on a nil *Stats are no-ops so unmetered transports cost
// nothing.
type Stats struct {
	framesSent      atomic.Int64
	framesReceived  atomic.Int64
	bytesSent       atomic.Int64
	bytesReceived   atomic.Int64
	sliceHits       atomic.Int64
	sliceMisses     atomic.Int64
	sliceBytesSaved atomic.Int64
	prefetchSent    atomic.Int64
	prefetchHits    atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	// FramesSent / FramesReceived count task and result frames.
	FramesSent, FramesReceived int64
	// BytesSent / BytesReceived count encoded frame bytes on metered
	// transports (pipes and sockets; the in-proc channel transport moves
	// pointers and ships no bytes).
	BytesSent, BytesReceived int64
	// SliceHits counts tasks whose log slice was shipped as a hash-only
	// reference because the worker already held the payload; SliceMisses
	// counts full payload ships (first sends plus eviction resends).
	SliceHits, SliceMisses int64
	// SliceBytesSaved estimates the payload bytes the cache avoided
	// re-shipping.
	SliceBytesSaved int64
	// PrefetchSent counts slice payloads shipped ahead of need via
	// Prefetch frames; PrefetchHits counts task frames whose slice
	// arrived stripped because a prefetch had already shipped it (each
	// prefetched slice is counted at most once per connection).
	PrefetchSent, PrefetchHits int64
}

// String renders the snapshot in the -verbose format of the CLIs.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("frames sent=%d received=%d; bytes sent=%d received=%d; slice cache hits=%d misses=%d bytes-saved=%d; prefetch sent=%d hits=%d",
		s.FramesSent, s.FramesReceived, s.BytesSent, s.BytesReceived,
		s.SliceHits, s.SliceMisses, s.SliceBytesSaved, s.PrefetchSent, s.PrefetchHits)
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		FramesSent:      s.framesSent.Load(),
		FramesReceived:  s.framesReceived.Load(),
		BytesSent:       s.bytesSent.Load(),
		BytesReceived:   s.bytesReceived.Load(),
		SliceHits:       s.sliceHits.Load(),
		SliceMisses:     s.sliceMisses.Load(),
		SliceBytesSaved: s.sliceBytesSaved.Load(),
		PrefetchSent:    s.prefetchSent.Load(),
		PrefetchHits:    s.prefetchHits.Load(),
	}
}

func (s *Stats) frameSent() {
	if s != nil {
		s.framesSent.Add(1)
	}
}

func (s *Stats) frameReceived() {
	if s != nil {
		s.framesReceived.Add(1)
	}
}

func (s *Stats) sliceHit(bytesSaved int) {
	if s != nil {
		s.sliceHits.Add(1)
		s.sliceBytesSaved.Add(int64(bytesSaved))
	}
}

func (s *Stats) sliceMiss() {
	if s != nil {
		s.sliceMisses.Add(1)
	}
}

func (s *Stats) prefetchSentInc() {
	if s != nil {
		s.prefetchSent.Add(1)
	}
}

func (s *Stats) prefetchHit() {
	if s != nil {
		s.prefetchHits.Add(1)
	}
}

// countingWriter meters bytes into a Stats counter; a nil stats target
// degrades to a plain pass-through.
type countingWriter struct {
	w     io.Writer
	stats *Stats
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if c.stats != nil {
		c.stats.bytesSent.Add(int64(n))
	}
	return n, err
}

type countingReader struct {
	r     io.Reader
	stats *Stats
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.stats != nil {
		c.stats.bytesReceived.Add(int64(n))
	}
	return n, err
}
