package shard_test

// TestMain doubles as the shard worker entry point: the subprocess pool
// in the equivalence tests re-executes this test binary with
// PXQL_SHARD_WORKER=1, which routes straight into the protocol loop
// instead of the test runner — the same wiring the pxqld binary's
// -shard-worker flag provides.

import (
	"fmt"
	"os"
	"testing"

	"perfxplain/internal/shard"
)

const workerEnv = "PXQL_SHARD_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := shard.Worker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
