package shard

// Runtime counters for the distributed shard path: frames and bytes
// crossing worker connections, and the slice cache's hit/miss balance
// (payloads ship only in task frames, so SliceMisses counts every
// payload shipped). The pool owns one Stats value; its connections
// meter their streams into it and the round-trip logic records cache
// outcomes. Counters are monotonic across the pool's lifetime (they
// survive worker replacement) and exposed via the CLIs' -verbose flag
// and WorkerPool.Stats (pxbench's shard rows).

import (
	"io"
	"sync/atomic"
)

// Stats accumulates shard-runtime counters. The zero value is ready.
type Stats struct {
	framesSent      atomic.Int64
	framesReceived  atomic.Int64
	bytesSent       atomic.Int64
	bytesReceived   atomic.Int64
	sliceHits       atomic.Int64
	sliceMisses     atomic.Int64
	sliceBytesSaved atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	// FramesSent / FramesReceived count task and result frames.
	FramesSent, FramesReceived int64
	// BytesSent / BytesReceived count encoded frame bytes, as they cross
	// the connection's stream.
	BytesSent, BytesReceived int64
	// SliceHits counts tasks whose log slice was shipped as a hash-only
	// reference because the worker already held the payload; SliceMisses
	// counts full payload ships (first sends plus eviction resends).
	SliceHits, SliceMisses int64
	// SliceBytesSaved estimates the payload bytes the cache avoided
	// re-shipping.
	SliceBytesSaved int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		FramesSent:      s.framesSent.Load(),
		FramesReceived:  s.framesReceived.Load(),
		BytesSent:       s.bytesSent.Load(),
		BytesReceived:   s.bytesReceived.Load(),
		SliceHits:       s.sliceHits.Load(),
		SliceMisses:     s.sliceMisses.Load(),
		SliceBytesSaved: s.sliceBytesSaved.Load(),
	}
}

// countingWriter meters the bytes written into a Stats counter.
type countingWriter struct {
	w     io.Writer
	stats *Stats
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.stats.bytesSent.Add(int64(n))
	return n, err
}

// countingReader meters the bytes read into a Stats counter.
type countingReader struct {
	r     io.Reader
	stats *Stats
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.stats.bytesReceived.Add(int64(n))
	return n, err
}
