package main

import "testing"

func TestRunSingleExperimentSmall(t *testing.T) {
	if err := run("fig3b", 7, 2, true, 0, 0, 0, "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunExamplesSmall(t *testing.T) {
	if err := run("examples", 7, 1, true, 0, 0, 0, "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable3Small(t *testing.T) {
	if err := run("table3", 7, 2, true, 4, 0, 0, "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig9z", 7, 1, true, 1, 0, 0, "", "", false); err == nil {
		t.Error("unknown experiment should error")
	}
}
