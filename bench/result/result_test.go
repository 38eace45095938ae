package result

import (
	"path/filepath"
	"reflect"
	"testing"
)

// A result file holds one envelope and a journal one a line; Load reads
// both, and what it reads is what was written.
func TestEnvelopeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := NewEnvelope(7, 10, 0, "2026-01-02T03:04:05Z")
	if e.Schema != Schema || e.Seed != 7 || e.NProc < 1 || e.GOMAXPROCS < 1 || e.GoVersion == "" || e.CPU == "" {
		t.Errorf("envelope misses a field: %+v", e)
	}
	e.Workloads = []Workload{{
		Name: "paper_sweep", Correct: true, Attempted: 3, Answers: 2, AnswersSHA256: "ab",
		EndToEnd: map[string]Value{"setup_s": {Value: 0.5, Unit: "s", Samples: 3, Bound: 0.25, Better: "lower"}},
		PerLayer: map[string]Value{"core.explain_ms": {Value: 10.7, Unit: "ms", Samples: 5}},
	}}

	file := filepath.Join(dir, "result.json")
	if err := e.WriteFile(file); err != nil {
		t.Fatal(err)
	}
	got, err := Load(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], e) {
		t.Errorf("result file read back as %+v, wrote %+v", got, e)
	}

	journal := filepath.Join(dir, "history.jsonl")
	for i := 0; i < 3; i++ {
		if err := e.AppendHistory(journal); err != nil {
			t.Fatal(err)
		}
	}
	got, err = Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !reflect.DeepEqual(got[2], e) {
		t.Errorf("journal read back as %d runs, last %+v", len(got), got[len(got)-1])
	}

	e.Schema = "pxbench/v0"
	if err := e.WriteFile(file); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(file); err == nil {
		t.Error("Load accepted another schema")
	}
}

func TestMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better %q", d.Name, d.Better)
		}
	}
	for _, d := range EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
