package main

// Golden test pinning the pxql CLI's byte-for-byte output across the
// columnar-engine refactor, at parallelism 1, 4 and GOMAXPROCS.
// Regenerate with `go test -update` only for intentional output changes.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// mainArg, as a child's first argument, routes TestMain into main().
const mainArg = "pxql-main"

// TestMain runs main() itself in a child started with mainArg first,
// over the remaining arguments, so a test can see the binary's own flag
// parsing and exit code.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
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

func TestGoldenCLI(t *testing.T) {
	log := writeSmallLog(t)
	for _, tech := range []string{"perfxplain", "ruleofthumb", "simbutdiff"} {
		outputs := make([]string, 0, 3)
		for _, p := range []int{1, 4, 0} {
			p := p
			out := captureStdout(t, func() error {
				return run(cliOpts{logPath: log, querySrc: testQuery, find: true, width: 3, level: 3, seed: 1, parallelism: p, technique: tech, evalPath: log})
			})
			outputs = append(outputs, out)
		}
		for i := 1; i < len(outputs); i++ {
			if outputs[i] != outputs[0] {
				t.Errorf("%s: output differs across parallelism levels:\n%s\nvs\n%s", tech, outputs[i], outputs[0])
			}
		}
		checkGolden(t, fmt.Sprintf("cli_%s", tech), outputs[0])
	}
}

func TestGoldenCLIGenDespite(t *testing.T) {
	log := writeSmallLog(t)
	out := captureStdout(t, func() error {
		return run(cliOpts{logPath: log, querySrc: "OBSERVED duration_compare = GT\nEXPECTED duration_compare = SIM", find: true, width: 3, level: 3, seed: 1, technique: "perfxplain", genDespite: true, evalPath: log})
	})
	checkGolden(t, "cli_gendespite", out)
}
