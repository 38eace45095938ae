package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfxplain"
)

// writeSmallLog materialises a small job log for CLI tests.
func writeSmallLog(t *testing.T) string {
	t.Helper()
	jobs, _, err := perfxplain.Collect(perfxplain.SweepOptions{Small: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jobs.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

const testQuery = `
DESPITE numinstances_issame = T AND pigscript_issame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM`

func TestRunFindsAndExplains(t *testing.T) {
	log := writeSmallLog(t)
	for _, tech := range []string{"perfxplain", "ruleofthumb", "simbutdiff"} {
		err := run(cliOpts{logPath: log, querySrc: testQuery, find: true, width: 3, level: 3, seed: 1, technique: tech})
		if err != nil {
			t.Errorf("%s: %v", tech, err)
		}
	}
}

func TestRunWithGeneratedDespiteAndEval(t *testing.T) {
	log := writeSmallLog(t)
	if err := run(cliOpts{logPath: log, querySrc: testQuery, find: true, width: 2, level: 3, seed: 1, technique: "perfxplain", genDespite: true, evalPath: log}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExplicitPair(t *testing.T) {
	log := writeSmallLog(t)
	// Find a valid pair first via the library, then pass it via -pair.
	f, err := os.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := perfxplain.ReadLogCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	q, err := perfxplain.ParseQuery(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, ok := perfxplain.FindPairOfInterestP(jobs, q, 1, 0)
	if !ok {
		t.Fatal("no pair")
	}
	if err := run(cliOpts{logPath: log, querySrc: testQuery, pair: id1 + "," + id2, width: 3, level: 3, seed: 1, technique: "perfxplain"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunQueryFromFile(t *testing.T) {
	log := writeSmallLog(t)
	qf := filepath.Join(t.TempDir(), "query.pxql")
	if err := os.WriteFile(qf, []byte(testQuery), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(cliOpts{logPath: log, queryFile: qf, find: true, width: 3, level: 3, seed: 1, technique: "perfxplain"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	log := writeSmallLog(t)
	cases := map[string]func() error{
		"no log": func() error {
			return run(cliOpts{querySrc: testQuery, find: true, width: 3, level: 3, seed: 1, technique: "perfxplain"})
		},
		"missing log file": func() error {
			return run(cliOpts{logPath: "/nonexistent/jobs.csv", querySrc: testQuery, find: true, width: 3, level: 3, seed: 1, technique: "perfxplain"})
		},
		"both query and file": func() error {
			return run(cliOpts{logPath: log, querySrc: testQuery, queryFile: "somefile", find: true, width: 3, level: 3, seed: 1, technique: "perfxplain"})
		},
		"bad technique": func() error {
			return run(cliOpts{logPath: log, querySrc: testQuery, find: true, width: 3, level: 3, seed: 1, technique: "oracle"})
		},
		"bad pair syntax": func() error {
			return run(cliOpts{logPath: log, querySrc: testQuery, pair: "justoneid", width: 3, level: 3, seed: 1, technique: "perfxplain"})
		},
		"no pair and no find": func() error {
			return run(cliOpts{logPath: log, querySrc: testQuery, width: 3, level: 3, seed: 1, technique: "perfxplain"})
		},
		"bad query": func() error {
			return run(cliOpts{logPath: log, querySrc: "NOT A QUERY", find: true, width: 3, level: 3, seed: 1, technique: "perfxplain"})
		},
		"bad eval path": func() error {
			return run(cliOpts{logPath: log, querySrc: testQuery, find: true, width: 3, level: 3, seed: 1, technique: "perfxplain", evalPath: "/nonexistent.csv"})
		},
	}
	for name, fn := range cases {
		if err := fn(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	// A flag the CLI no longer has is refused by the flag package before
	// anything runs — never accepted and ignored.
	out, err := exec.Command(os.Args[0], mainArg, "-log", log, "-find", "-query", testQuery, "-sample-mode", "stratified").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), "flag provided but not defined: -sample-mode") {
		t.Errorf("pxql -sample-mode stratified: err %v, output:\n%s\nwant a non-zero exit naming the undefined flag", err, out)
	}
}
