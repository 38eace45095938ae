package shard

// The wire protocol between a shard coordinator and its workers: a
// stream of gob-encoded Task frames answered one-for-one by gob-encoded
// Result frames — over a subprocess's stdin/stdout, an in-process pipe
// or an authenticated TCP socket (see transport.go; the frames are the
// same on every stream). Every frame carries the protocol version; a
// worker refuses mismatched frames with an error result instead of
// guessing. The payloads themselves (log slices, predicate
// specs, splitmix counter ranges) are the core package's shard spec
// types, whose decode paths validate everything —
// a corrupt or malicious frame produces an error result, never a panic
// (FuzzShardCodec pins this).
//
// Every task frame carries its records once, beside its spec, as
// content-addressed log slices — the log's segments, concatenating in
// order to the whole log the spec indexes — and any of them may arrive
// as a reference: the slice's hash without its payload, when the
// coordinator knows it already shipped the payload on this connection.
// A worker that no longer holds a slice (cache eviction) answers with
// CacheMiss, and the coordinator re-ships the full frame — so caching
// changes bytes on the wire, never results. A payload travels only in
// the task frame that reads it; no frame ships records ahead of need.
//
// gob rather than JSON is the frame encoding because the dominant frame
// payloads are float64/uint64 planes and index slices, which gob moves
// in binary; the spec types also carry JSON tags, so the same frames can
// be dumped human-readably for debugging.

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"perfxplain/internal/core"
)

// Version is the shard protocol version. Bump it when a spec or frame
// field changes meaning; workers reject frames from other versions.
// Version 2: content-addressed slices (LogSlice refs + CacheMiss) and
// evaluation shards.
// Version 3: stratified enumeration shards (a mode switch and per-group
// pair budgets).
// Version 4: two-pass adaptive enumeration rounds (a round marker) and
// pipelined slice prefetch (Task.Prefetch).
// Version 5: segmented multi-slice specs (EnumSpec.Slices,
// EvalSpec.Slices) — a spec may carry the per-segment hashed slices of
// a watermark snapshot, each independently cacheable and strippable to
// a reference.
// Version 6: slices are the only record carriage — EnumSpec.Log,
// EnumSpec.Global, EvalSpec.Slice and EvalSpec.Global are gone, and
// group members index the concatenated slices directly.
// Version 7: the training sample never leaves the coordinator —
// Task.Mat, Task.Score, Result.Mat, Result.Score and LogSlice.Intern are
// gone; enumeration and evaluation are the only spec kinds.
// Version 8: no field changed, but KeepP below 1/8 now selects a
// different sample — core.walkTiles draws per-outer-row geometric skips
// there instead of hashing every (i, j) — so a v7 worker and a v8
// coordinator would each return a valid thinning and merge into a set
// neither would produce alone. They refuse each other instead.
// Version 9: Bernoulli thinning under KeepP is the only sampler — v3's
// mode switch and group budgets and v4's round marker are gone, so a v8
// frame asking for a stratified walk is refused, not walked whole.
// Version 10: no field changed, but KeepP below 1/8 selects a different
// sample again — the skip gap is now inverted from a fixed-point table in
// integer arithmetic (core's skip.go) instead of ⌊ln U / ln(1−KeepP)⌋
// through math.Log, which agreed with itself only among builds sharing a
// GOARCH. The two samplers spend a different number of draws on any gap
// longer than the table (one in twenty at KeepP = 0.003), after which
// the rest of the row differs, so v9 and v10 refuse each other; among
// v10 builds results are byte-identical across executors — local,
// subprocess, socket — whatever architecture each side was compiled for.
// Version 11: the slices move off the specs onto the frame —
// EnumSpec.Slices and EvalSpec.Slices are gone and Task.Slices carries
// the log's segments once per task. A v10 frame decodes to a task with
// no slices (gob drops the spec fields the receiver lacks) and would
// fail as one; the version check refuses it first.
// Version 12: the Prefetch frame is gone; a v11 prefetch frame would
// decode as a task with no spec.
const Version = 12

//pxql:wirehash fd423f812053e468 v=12

// Task is one request frame: exactly one spec pointer is set, with
// Slices the records it walks.
//
//pxql:wire decode=workerState.dispatch
type Task struct {
	Version int
	Seq     int
	// Slices is the log the spec walks: one content-addressed slice per
	// segment, concatenating in order to the whole log, shared by every
	// task of a batch.
	Slices []core.LogSlice
	Enum   *core.EnumSpec
	Eval   *core.EvalSpec
}

// strippedWith returns a copy of the task in which every slice whose
// hash is in known is replaced by its hash reference — the frame sent
// to a worker that already holds those payloads — plus the stripped
// hashes in slice order. Slices not in known (e.g. a fresh tail
// segment) keep their payloads: one frame can mix references and
// payloads.
func (t *Task) strippedWith(known map[string]int) (*Task, []string) {
	var refd []string
	out := make([]core.LogSlice, len(t.Slices))
	for i, s := range t.Slices {
		if _, ok := known[s.Hash]; ok && s.Hash != "" && !s.Ref {
			refd = append(refd, s.Hash)
			s = s.AsRef()
		}
		out[i] = s
	}
	c := *t
	c.Slices = out
	return &c, refd
}

// Result is one response frame, answering the Task with the same Seq.
// Err is the task's error, if any; CacheMiss reports that a reference
// slice was not in the worker's cache (the coordinator re-ships the
// payload); exactly one result pointer is set on success.
//
//pxql:wire decode=workerProc.exchange
type Result struct {
	Version   int
	Seq       int
	Err       string
	CacheMiss bool
	Enum      *core.EnumResult
	Eval      *core.EvalResult
}

// Worker serves shard tasks from r until EOF, writing one result per
// task to w — the body of the `pxql -shard-worker` subprocess mode.
// Task execution errors (including corrupt specs) are reported in-band
// as Result.Err; only transport failures (a truncated or undecodable
// stream) end the loop with an error.
func Worker(r io.Reader, w io.Writer) error {
	return worker(r, w, newWorkerState())
}

// worker is the loop every worker runs, whatever stream it serves:
// results are buffered and flushed once per frame.
func worker(r io.Reader, w io.Writer, ws *workerState) error {
	dec := gob.NewDecoder(r)
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	for {
		var t Task
		if err := dec.Decode(&t); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("shard: decode task: %w", err)
		}
		if err := enc.Encode(ws.dispatch(&t)); err != nil {
			return fmt.Errorf("shard: encode result: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("shard: flush result: %w", err)
		}
	}
}
