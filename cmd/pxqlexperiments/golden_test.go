package main

// Golden test pinning the pxqlexperiments CLI's output (timing lines
// normalised away) across the columnar-engine refactor, at parallelism
// 1, 4 and GOMAXPROCS. Regenerate with `go test -update` only for
// intentional output changes.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"perfxplain/cmd/internal/shardflag"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

var (
	timingLine    = regexp.MustCompile(`^\s*\[[^\]]+\]\s*$`)
	collectedLine = regexp.MustCompile(`^(collected \d+ jobs / \d+ tasks) in .*$`)
)

// normalize strips wall-clock timings, which legitimately vary run to
// run; everything else must be byte-identical.
func normalize(out string) string {
	lines := strings.Split(out, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if timingLine.MatchString(l) {
			continue
		}
		if m := collectedLine.FindStringSubmatch(l); m != nil {
			l = m[1]
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenExperimentsCLI(t *testing.T) {
	for _, exp := range []string{"table3", "fig4c"} {
		outputs := make([]string, 0, 3)
		for _, p := range []int{1, 4, 0} {
			p := p
			out := captureStdout(t, func() error { return run(exp, 7, 2, true, p, shardflag.Flags{}, false) })
			outputs = append(outputs, normalize(out))
		}
		for i := 1; i < len(outputs); i++ {
			if outputs[i] != outputs[0] {
				t.Errorf("%s: output differs across parallelism levels:\n%s\nvs\n%s", exp, outputs[i], outputs[0])
			}
		}
		checkGolden(t, fmt.Sprintf("cli_%s", exp), outputs[0])
	}
}
