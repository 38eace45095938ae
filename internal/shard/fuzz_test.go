package shard_test

// FuzzShardCodec pins the two safety properties of the shard protocol:
//
//  1. Lossless round-trips: a planned spec — log slice, interned symbol
//     table, compiled-predicate spec, splitmix counter ranges — survives
//     gob (the pipe encoding) and JSON (the debug encoding) unchanged,
//     and the decoded spec executes to exactly the original's result.
//  2. No panics on corrupt input: arbitrary bytes, and valid frames with
//     fuzzer-chosen corruption, go through the full worker loop without
//     panicking — failures surface as transport errors or in-band task
//     errors. Three shapes are pinned by name: frames from protocols v5
//     and v10 (whose specs still carried their records) are refused with
//     the version-mismatch error, a task with no slices fails with
//     "core: spec has no slices", and a slice holding a cell of the wrong
//     kind for its field is refused by the wire decoder.
//
// Run with: go test -fuzz FuzzShardCodec ./internal/shard

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
	"perfxplain/internal/shard"
)

// byteDriver doles out fuzz bytes as bounded decisions.
type byteDriver struct {
	data []byte
	pos  int
}

func (d *byteDriver) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *byteDriver) intn(n int) int { return int(d.next()) % n }

// fuzzLog builds a small log whose shape (field kinds, missing cells,
// nominal payloads including intern-hostile strings) is driven by the
// fuzz input.
func (d *byteDriver) fuzzLog() *joblog.Log {
	nf := 1 + d.intn(5)
	fields := make([]joblog.Field, nf)
	for i := range fields {
		kind := joblog.Numeric
		if d.intn(2) == 1 {
			kind = joblog.Nominal
		}
		fields[i] = joblog.Field{Name: fmt.Sprintf("f%d", i), Kind: kind}
	}
	log := joblog.NewLog(joblog.NewSchema(fields))
	payloads := []string{"a", "b", "(x→y)", "→", "", "same", "T"}
	nr := 2 + d.intn(11)
	for r := 0; r < nr; r++ {
		values := make([]joblog.Value, nf)
		for i, f := range fields {
			switch {
			case d.intn(5) == 0:
				values[i] = joblog.None()
			case f.Kind == joblog.Numeric:
				values[i] = joblog.Num(float64(int8(d.next())))
			default:
				values[i] = joblog.Str(payloads[d.intn(len(payloads))])
			}
		}
		log.MustAppend(&joblog.Record{ID: fmt.Sprintf("r%d", r), Values: values})
	}
	return log
}

// fuzzPredicate builds a predicate over the log's derived features (and
// the occasional unknown feature).
func (d *byteDriver) fuzzPredicate(dr *features.Deriver) pxql.Predicate {
	n := d.intn(4)
	p := make(pxql.Predicate, 0, n)
	for i := 0; i < n; i++ {
		feat := "nosuch"
		if s := dr.Schema(); s.Len() > 0 && d.intn(8) != 0 {
			feat = s.Field(d.intn(s.Len())).Name
		}
		var v joblog.Value
		switch d.intn(3) {
		case 0:
			v = joblog.Num(float64(int8(d.next())))
		case 1:
			v = joblog.Str([]string{"T", "F", "GT", "SIM", "a", "(x→y)"}[d.intn(6)])
		default:
			v = joblog.None()
		}
		p = append(p, pxql.Atom{Feature: feat, Op: pxql.Op(d.intn(6)), Value: v})
	}
	return p
}

// gobBytes encodes v with a fresh encoder — equal values produce equal
// streams, making re-encoding a losslessness check that treats nil and
// empty slices (which gob cannot distinguish) uniformly.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

func roundTripGob[T any](t *testing.T, v *T) *T {
	t.Helper()
	enc := gobBytes(t, v)
	out := new(T)
	if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(out); err != nil {
		t.Fatalf("gob decode of own encoding: %v", err)
	}
	if !bytes.Equal(enc, gobBytes(t, out)) {
		t.Fatalf("gob round-trip not lossless:\n%#v\nvs\n%#v", v, out)
	}
	return out
}

func roundTripJSON[T any](t *testing.T, v *T) {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json marshal: %v", err)
	}
	out := new(T)
	if err := json.Unmarshal(enc, out); err != nil {
		t.Fatalf("json unmarshal of own encoding: %v", err)
	}
	enc2, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("json re-marshal: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("json round-trip not lossless:\n%s\nvs\n%s", enc, enc2)
	}
}

// seedSpec plans one enumeration spec over a tiny flat log and returns
// it with the log's slices — the body of the well-formed seed frames.
func seedSpec() (core.EnumSpec, []core.LogSlice) {
	log := (&byteDriver{data: []byte{2, 0, 1, 9, 1, 7, 1, 3, 1, 7, 1, 5}}).fuzzLog()
	q := &pxql.Query{}
	return core.PlanEnumShards(log, features.Level3, q, q.Despite, 0, 1, 1)[0], core.LogSlices(log)
}

// v5Frame is a task frame as protocol v5 wrote it: version 5, and an
// enumeration spec that still carries its records inline next to the
// per-shard global index.
func v5Frame(t testing.TB) []byte {
	spec, slices := seedSpec()
	type v5EnumSpec struct {
		Log    joblog.WireLog
		Slices []core.LogSlice
		Global []int
		Groups []core.EnumGroup
		KeepP  float64
		Level  features.Level
	}
	type v5Task struct {
		Version int
		Seq     int
		Enum    *v5EnumSpec
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&v5Task{Version: 5, Seq: 3, Enum: &v5EnumSpec{
		Log: slices[0].Log, Global: []int{0, 1}, Groups: spec.Groups, KeepP: 1, Level: features.Level3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v6MatFrame is a materialization task as protocol v6 framed it: the
// training sample's one slice, with the coordinator's intern table, and
// its slice-local pair indices. v7 has neither the spec kind nor the
// intern field.
func v6MatFrame(t testing.TB) []byte {
	_, slices := seedSpec()
	type v6LogSlice struct {
		Hash   string
		Log    joblog.WireLog
		Intern []string
	}
	type v6MatSpec struct {
		Slice        v6LogSlice
		Level        features.Level
		PairA, PairB []int
		Row0         int
	}
	type v6Task struct {
		Version int
		Seq     int
		Mat     *v6MatSpec
	}
	return gobBytes(t, &v6Task{Version: 6, Seq: 4, Mat: &v6MatSpec{
		Slice: v6LogSlice{Hash: slices[0].Hash, Log: slices[0].Log, Intern: []string{"a", "b"}},
		Level: features.Level3, PairA: []int{0}, PairB: []int{1},
	}})
}

// staleFrame is a well-formed enumeration task as protocol v7, v8 or v9
// framed it — field for field a current frame, but for the version: v8
// and v10 changed which pairs a KeepP below 1/8 keeps, and v9 took the
// fields that selected v8's other samplers off the wire (gob drops fields
// the receiver lacks, so a frame carrying them decodes to this one).
func staleFrame(t testing.TB, version int) []byte {
	spec, slices := seedSpec()
	spec.KeepP = 0.01
	return gobBytes(t, &shard.Task{Version: version, Seq: 6, Slices: slices, Enum: &spec})
}

// v10Frame is an enumeration task as protocol v10 framed it: the log's
// slices rode on the spec, not the task. A newer worker decodes it to a
// task with no slices (gob drops the spec field it lacks).
func v10Frame(t testing.TB) []byte {
	spec, slices := seedSpec()
	type v10EnumSpec struct {
		Slices   []core.LogSlice
		Groups   []core.EnumGroup
		KeepP    float64
		Seed     uint64
		Level    features.Level
		Despite  pxql.PredicateSpec
		Observed pxql.PredicateSpec
		Expected pxql.PredicateSpec
	}
	type v10Task struct {
		Version int
		Seq     int
		Enum    *v10EnumSpec
	}
	return gobBytes(t, &v10Task{Version: 10, Seq: 7, Enum: &v10EnumSpec{
		Slices: slices, Groups: spec.Groups, KeepP: spec.KeepP, Seed: spec.Seed, Level: spec.Level,
		Despite: spec.Despite, Observed: spec.Observed, Expected: spec.Expected,
	}})
}

// v11PrefetchFrame is a payload-only frame as protocol v11 framed it: a
// slice to cache ahead of the tasks that reference it, and no spec.
func v11PrefetchFrame(t testing.TB) []byte {
	_, slices := seedSpec()
	type v11Task struct {
		Version  int
		Seq      int
		Prefetch *core.LogSlice
	}
	return gobBytes(t, &v11Task{Version: 11, Seq: 8, Prefetch: &slices[0]})
}

// removedFieldFrame is a frame claiming the current version whose only
// payload is a field the protocol no longer has: a scoring spec.
func removedFieldFrame(t testing.TB) []byte {
	type scoreSpec struct {
		Target         string
		FeatLo, FeatHi int
	}
	type task struct {
		Version int
		Seq     int
		Score   *scoreSpec
	}
	return gobBytes(t, &task{Version: shard.Version, Seq: 5, Score: &scoreSpec{Target: "duration", FeatHi: 3}})
}

// workerResults feeds one frame to a worker loop and decodes every
// result it answers with.
func workerResults(t *testing.T, frame []byte) []shard.Result {
	t.Helper()
	var out bytes.Buffer
	if err := shard.Worker(bytes.NewReader(frame), &out); err != nil {
		t.Fatalf("worker: %v", err)
	}
	var results []shard.Result
	dec := gob.NewDecoder(&out)
	for {
		var r shard.Result
		if err := dec.Decode(&r); err != nil {
			return results
		}
		results = append(results, r)
	}
}

// TestWorkerRefusesOldFrames pins the cross-version contract: an old
// frame decodes (gob drops the fields the protocol no longer has) and
// is answered with the version-mismatch error — it never runs, and
// never panics. Each row says why the refusal matters:
//   - v5: the first version whose frames still decode at all;
//   - v7, v8, v9: each decodes into a perfectly runnable current task
//     that a different sampler than its coordinator's would thin (v8 also
//     asked for samplers v9 removed, v9 drew its gaps through math.Log),
//     so the version check alone stands between it and a silently
//     different sample;
//   - v10: its spec's slices are dropped, and the refusal comes before
//     a confusing "no slices" failure;
//   - v11 prefetch: a payload-only frame decodes as a task with no spec,
//     and the refusal comes before "task carries no spec".
func TestWorkerRefusesOldFrames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		frame   func(testing.TB) []byte
		seq     int
		version int
	}{
		{"v5", v5Frame, 3, 5},
		{"v7", func(t testing.TB) []byte { return staleFrame(t, 7) }, 6, 7},
		{"v8", func(t testing.TB) []byte { return staleFrame(t, 8) }, 6, 8},
		{"v9", func(t testing.TB) []byte { return staleFrame(t, 9) }, 6, 9},
		{"v10", v10Frame, 7, 10},
		{"v11_prefetch", v11PrefetchFrame, 8, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := workerResults(t, tc.frame(t))
			if len(results) != 1 || results[0].Seq != tc.seq || results[0].Enum != nil || results[0].Eval != nil ||
				results[0].Err != fmt.Sprintf("shard: protocol version %d, want %d", tc.version, shard.Version) {
				t.Fatalf("%s frame answered with %+v", tc.name, results)
			}
		})
	}
}

// TestWorkerRefusesRemovedSpecKinds pins what became of the spec kinds
// v7 deleted: a v6 materialization frame is a version mismatch like any
// other old frame, and a current-version frame carrying only a removed
// field decodes to a task with no spec (gob drops unknown fields) and is
// refused as such — typed errors, never a panic, never a result.
func TestWorkerRefusesRemovedSpecKinds(t *testing.T) {
	results := workerResults(t, v6MatFrame(t))
	if len(results) != 1 || results[0].Seq != 4 || results[0].Enum != nil || results[0].Eval != nil ||
		results[0].Err != fmt.Sprintf("shard: protocol version 6, want %d", shard.Version) {
		t.Errorf("v6 materialization frame answered with %+v", results)
	}
	results = workerResults(t, removedFieldFrame(t))
	if len(results) != 1 || results[0].Seq != 5 || results[0].Enum != nil || results[0].Eval != nil ||
		results[0].Err != "shard: task carries no spec" {
		t.Errorf("frame carrying only a removed field answered with %+v", results)
	}
}

// wrongKindFrame is a current enumeration task whose slice carries a
// nominal wire value in the seed log's numeric field f0, content address
// and all, as a peer that skipped the doors would send it.
func wrongKindFrame(t testing.TB) []byte {
	spec, slices := seedSpec()
	w := slices[0].Log
	w.Records = append([]joblog.WireRecord(nil), w.Records...)
	w.Records[0].Values = append([]joblog.WireValue(nil), w.Records[0].Values...)
	w.Records[0].Values[0] = joblog.WireValue{Kind: joblog.Nominal.String(), Str: "x"}
	return gobBytes(t, &shard.Task{Version: shard.Version, Seq: 6, Slices: []core.LogSlice{core.NewLogSlice(w)}, Enum: &spec})
}

// TestWorkerRefusesWrongKindSlice: a slice whose cell disagrees with its
// field's kind is refused in band, naming the record and field, and
// nothing is enumerated.
func TestWorkerRefusesWrongKindSlice(t *testing.T) {
	results := workerResults(t, wrongKindFrame(t))
	if len(results) != 1 || results[0].Seq != 6 || results[0].Enum != nil ||
		!strings.Contains(results[0].Err, `record "r0" field "f0" (numeric) holds a nominal value`) {
		t.Fatalf("wrong-kind slice answered with %+v", results)
	}
}

// TestSpecWithoutSlices pins the error for a spec that arrives with no
// records at all — decoded directly, through the worker loop and through
// a pool.
func TestSpecWithoutSlices(t *testing.T) {
	const want = "core: spec has no slices"
	if _, err := core.DecodeSlices(nil); err == nil || err.Error() != want {
		t.Errorf("decoding no slices: %v", err)
	}
	enum, _ := seedSpec()
	eval := core.EvalSpec{Level: features.Level3}
	for _, task := range []shard.Task{
		{Version: shard.Version, Enum: &enum},
		{Version: shard.Version, Eval: &eval},
	} {
		if results := workerResults(t, gobBytes(t, &task)); len(results) != 1 || results[0].Err != want {
			t.Errorf("worker answered a spec without slices with %+v", results)
		}
	}
	if _, err := inProcPool(t, 1).RunEval(nil, []core.EvalSpec{eval}); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("pool on a spec without slices: %v", err)
	}
}

func FuzzShardCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7a}, 40))
	f.Add([]byte("DESPITE pigscript_issame = T OBSERVED duration_compare = GT"))
	// Well-formed frames for the mutator to start from: a current task,
	// the same task with its slice list emptied, a v5-framed one, a
	// v6-framed materialization task, a v8 task, a v10 task, a v11
	// prefetch-only frame, a current frame whose only payload is a field
	// the protocol removed, and a current task whose slice holds a
	// wrong-kind cell.
	spec, slices := seedSpec()
	f.Add(gobBytes(f, &shard.Task{Version: shard.Version, Seq: 1, Slices: slices, Enum: &spec}))
	f.Add(gobBytes(f, &shard.Task{Version: shard.Version, Seq: 2, Enum: &spec}))
	f.Add(v5Frame(f))
	f.Add(v6MatFrame(f))
	f.Add(staleFrame(f, 8))
	f.Add(v10Frame(f))
	f.Add(v11PrefetchFrame(f))
	f.Add(removedFieldFrame(f))
	f.Add(wrongKindFrame(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		// Property 2a: arbitrary bytes through the worker loop — no panic.
		_ = shard.Worker(bytes.NewReader(data), io.Discard)

		// Build structured specs from the same bytes.
		d := &byteDriver{data: data}
		log := d.fuzzLog()
		dr := features.NewDeriver(log.Schema, features.Level3)
		q := &pxql.Query{
			Despite:  d.fuzzPredicate(dr),
			Observed: d.fuzzPredicate(dr),
			Expected: d.fuzzPredicate(dr),
		}
		slices := core.LogSlices(log)
		view, err := core.DecodeSlices(slices)
		if err != nil {
			t.Fatalf("decode of own slices: %v", err)
		}
		// A reference without a cached payload must error, not panic or
		// fabricate a view.
		if _, err := core.DecodeSlices([]core.LogSlice{slices[0].AsRef()}); err == nil {
			t.Fatalf("reference slice without cache decoded")
		}
		specs := core.PlanEnumShards(log, features.Level3, q, q.Despite,
			1+d.intn(64), 1+d.intn(5), uint64(d.next()))

		for si := range specs {
			spec := &specs[si]
			want, wantErr := spec.RunWith(view)

			// Property 1: gob and JSON round-trips are lossless, and the
			// decoded spec reproduces the original's execution exactly.
			dec := roundTripGob(t, spec)
			roundTripJSON(t, spec)
			got, gotErr := dec.RunWith(view)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("decoded spec error mismatch: %v vs %v", wantErr, gotErr)
			}
			if wantErr == nil && !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
				t.Fatalf("decoded spec result differs:\n%#v\nvs\n%#v", want, got)
			}
			if wantErr == nil && !reflect.DeepEqual(want.Labels, got.Labels) {
				t.Fatalf("decoded spec labels differ")
			}
		}

		// Evaluation shards: gob/JSON-lossless, and the decoded spec
		// reproduces the original's counts.
		x := &core.Explanation{Despite: d.fuzzPredicate(dr), Because: d.fuzzPredicate(dr)}
		evalSpecs := core.PlanEvalShards(log, features.Level3, q, x, 1+d.intn(64), 1+d.intn(4), uint64(d.next()))
		for si := range evalSpecs {
			spec := &evalSpecs[si]
			want, wantErr := spec.RunWith(view)
			dec := roundTripGob(t, spec)
			roundTripJSON(t, spec)
			got, gotErr := dec.RunWith(view)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("decoded eval spec error mismatch: %v vs %v", wantErr, gotErr)
			}
			if wantErr == nil && *want != *got {
				t.Fatalf("decoded eval spec counts differ: %+v vs %+v", want, got)
			}
		}

		// The log slice round-trips losslessly on its own (the codec
		// piece in joblog).
		wire := log.Wire()
		roundTripGob(t, &wire)
		roundTripJSON(t, &wire)
		if back, err := wire.Log(); err != nil {
			t.Fatalf("decode of own wire log: %v", err)
		} else if back.Len() != log.Len() {
			t.Fatalf("wire log length changed: %d vs %d", back.Len(), log.Len())
		}

		// Property 2b: a valid frame with fuzzer-chosen corruption — no
		// panic anywhere in decode or execution; errors are fine.
		task := shard.Task{Version: shard.Version, Seq: 1, Slices: slices, Enum: &specs[0]}
		frame := gobBytes(t, roundTripGob(t, &task))
		if len(frame) > 0 {
			i := d.intn(len(frame))
			frame[i] ^= 1 << uint(d.intn(8))
			var out bytes.Buffer
			_ = shard.Worker(bytes.NewReader(frame), &out)
		}
	})
}
