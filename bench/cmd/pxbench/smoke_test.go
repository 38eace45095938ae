package main

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"

	"perfxplain/bench/result"
)

// The harness end to end on the smallest workload: build the binaries,
// serve, verify every answer, probe the layers, write the artifacts. Run
// twice with -questions, it must ask the same questions, get the same
// bytes back and count the same work.
func TestPaperSweepRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs pxqld")
	}
	var runs [2]result.Workload
	for i := range runs {
		out := t.TempDir()
		journal := filepath.Join(out, "history.jsonl")
		if code := run([]string{"-workload", "paper_sweep", "-seed", "3", "-seconds", "60", "-questions", "8",
			"-trace", "1", "-out", out, "-history", journal}); code != 0 {
			t.Fatalf("pxbench exited %d", code)
		}
		envs, err := result.Load(journal)
		if err != nil {
			t.Fatal(err)
		}
		if len(envs) != 1 || len(envs[0].Workloads) != 1 {
			t.Fatalf("journal holds %+v", envs)
		}
		w := envs[0].Workloads[0]
		runs[i] = w
		if !w.Correct || w.Failed != 0 || w.FailedShare != 0 {
			t.Errorf("run %d: correct %v, failed %d of %d", i, w.Correct, w.Failed, w.Attempted)
		}
		// 3 servers x (8 one-client + 8 two-client) distinct questions.
		if w.Answers != 48 {
			t.Errorf("run %d: %d answers verified, want 48", i, w.Answers)
		}
		for _, d := range result.EndToEnd {
			if v, ok := w.EndToEnd[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit || v.Samples < 1 || v.Bound != d.Bound {
				t.Errorf("run %d: end-to-end metric %s = %+v", i, d.Name, v)
			}
		}
		for _, d := range result.PerLayer {
			if v, ok := w.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("run %d: per-layer metric %s = %+v", i, d.Name, v)
			}
		}

		f, err := os.Open(filepath.Join(out, "trace-paper_sweep.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for sc := bufio.NewScanner(f); sc.Scan(); {
			lines++
		}
		f.Close()
		// The envelope, then at least parse, new_explainer, explain and
		// render under a question span for each of the 48 answers.
		if lines < 1+48*5 {
			t.Errorf("run %d: trace holds %d lines", i, lines)
		}
		if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) > 0 {
			t.Errorf("run %d left %v behind", i, left)
		}
	}
	if runs[0].AnswersSHA256 != runs[1].AnswersSHA256 {
		t.Errorf("answers_sha256 differs between two runs of one seed: %s, %s", runs[0].AnswersSHA256, runs[1].AnswersSHA256)
	}
	for _, name := range []string{"serve.cache_hits", "serve.cache_misses", "serve.collapsed", "serve.computations",
		"serve.rejected_429", "serve.timeout_504", "core.pairs_kept", "joblog.sealed_segments"} {
		if a, b := runs[0].PerLayer[name].Value, runs[1].PerLayer[name].Value; a != b {
			t.Errorf("%s differs between two runs of one seed: %v, %v", name, a, b)
		}
	}
}
