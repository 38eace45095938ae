package main

import (
	"os"
	"path/filepath"
	"testing"

	"perfxplain"
)

func TestRunWritesLogsAndHistory(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, true, 7, true, 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"jobs.csv", "tasks.csv"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		log, err := perfxplain.ReadLogCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if log.Len() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "history"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 32 {
		t.Errorf("history files = %d, want 32", len(entries))
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := run(dirA, true, 9, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := run(dirB, true, 9, false, 0); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dirA, "jobs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "jobs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("same-seed runs wrote different logs")
	}
}

func TestRunBadOutputDir(t *testing.T) {
	// A file where the directory should go forces a failure path.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(blocker, true, 1, false, 0); err == nil {
		t.Error("expected error when output dir is a file")
	}
}
