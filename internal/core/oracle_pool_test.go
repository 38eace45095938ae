package core_test

// The oracle property (oracle_test.go) through the worker runtime: the
// chan-transport pool runs the whole frame protocol — slice shipping,
// worker-side decode, caching and segment concatenation — so what comes
// back is the kernel's answer over a decoded copy of the log, compared
// with the paper's definitions rather than with local execution. The
// rank sampler's leg rides along: its questions ship nothing, and its
// sample under the pool must be the serial local one.

import (
	"testing"

	"perfxplain/internal/core"
	"perfxplain/internal/joblog"
	"perfxplain/internal/shard"
)

func TestOracleChanPool(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7} {
		pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
		// The flat log's own layout.
		core.CheckOracle(t, func(log *joblog.Log) core.Exec {
			return core.Exec{Shards: shards, Runner: pool, Layout: core.FlatLayout(log)}
		})
		// The same records as a store snapshot sealed every few appends:
		// blocking groups straddle segment boundaries and the tail.
		core.CheckOracle(t, func(log *joblog.Log) core.Exec {
			st := joblog.NewStore(log.Schema, 1+2*shards)
			for _, r := range log.Records {
				st.MustAppend(r)
			}
			layout, err := core.NewSegmentLayout(st.Snapshot().Segments())
			if err != nil {
				t.Fatal(err)
			}
			return core.Exec{Shards: shards, Runner: pool, Layout: layout}
		})
		pool.Close()
	}
}

// TestNumericBlockingChanPool runs the numeric-isSame blocking regression
// (block_test.go) through the worker runtime.
func TestNumericBlockingChanPool(t *testing.T) {
	pool := &shard.Pool{Dialer: shard.InProcDialer{}, Workers: 2}
	defer pool.Close()
	core.CheckNumericBlocking(t, func(log *joblog.Log) core.Exec {
		return core.Exec{Shards: 2, Runner: pool, Layout: core.FlatLayout(log)}
	})
}
