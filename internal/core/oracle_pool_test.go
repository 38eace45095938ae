package core_test

// The oracle property (oracle_test.go) through the worker runtime: the
// in-process pool runs the whole frame protocol — gob codec, slice
// shipping, worker-side decode, caching and segment concatenation — so
// what comes back is the kernel's answer over a decoded copy of the log,
// compared with the paper's definitions rather than with local
// execution. The
// rank sampler's leg rides along: its questions ship nothing, and its
// sample under the pool must be the serial local one.

import (
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/shard"
)

func TestOracleChanPool(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7} {
		pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
		ex := core.Exec{Shards: shards, Runner: pool}
		// The flat log's own segments, then the same records as a store
		// snapshot sealed every few appends.
		core.CheckOracle(t, ex, 0)
		core.CheckOracle(t, ex, 1+2*shards)
		pool.Close()
	}
}

// TestNumericBlockingChanPool runs the numeric-isSame blocking regression
// (block_test.go) through the worker runtime.
func TestNumericBlockingChanPool(t *testing.T) {
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
	defer pool.Close()
	core.CheckNumericBlocking(t, core.Exec{Shards: 2, Runner: pool})
}
