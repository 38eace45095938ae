package joblog_test

import (
	"bytes"
	"testing"

	"perfxplain/internal/joblog"
)

var sinkIndex *joblog.ColIndex

// BenchmarkSnapshotSortedIndex times the first `duration` index of a
// store's new watermark, the index a blocked question reads first, on
// the sweep amplified to 27 000 jobs (sweepCSV):
//
//   - bulk: the first index after one Ingest of all 27 000 rows into an
//     empty store at the default seal threshold (13 sealed segments and
//     a tail);
//   - append: the first index after a 540-row Ingest into a store that
//     holds 5 400 sealed rows and has indexed every watermark before.
//     The store grows by 540 rows an iteration from 5 400 to 27 000 and
//     starts again, so a run averages over those sizes.
//
// Only the index build is timed; ingesting, sealing and snapshotting are
// not.
func BenchmarkSnapshotSortedIndex(b *testing.B) {
	const rows, base, step = 27000, 5400, 540
	all, err := joblog.ReadCSV(bytes.NewReader(sweepCSV(b, (rows+31)/32)))
	if err != nil {
		b.Fatal(err)
	}
	f, ok := all.Schema.Index("duration")
	if !ok {
		b.Fatal("the sweep has no duration field")
	}
	part := func(lo, hi int) *joblog.Log {
		return &joblog.Log{Schema: all.Schema, Records: all.Records[lo:hi]}
	}
	ingest := func(st *joblog.Store, l *joblog.Log) {
		if err := st.Ingest(l); err != nil {
			b.Fatal(err)
		}
	}
	bulk := part(0, rows)
	batches := make([]*joblog.Log, 0, (rows-base)/step)
	for lo := base; lo < rows; lo += step {
		batches = append(batches, part(lo, lo+step))
	}
	sealed := func() *joblog.Store {
		st := joblog.NewStore(all.Schema, 0)
		ingest(st, part(0, base))
		st.Seal()
		sinkIndex = st.Snapshot().Log().Columns().SortedIndex(f)
		return st
	}

	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := joblog.NewStore(all.Schema, 0)
			ingest(st, bulk)
			cols := st.Snapshot().Log().Columns()
			b.StartTimer()
			sinkIndex = cols.SortedIndex(f)
		}
	})
	b.Run("append", func(b *testing.B) {
		b.StopTimer()
		st, next := sealed(), 0
		for i := 0; i < b.N; i++ {
			if next == len(batches) {
				st, next = sealed(), 0
			}
			ingest(st, batches[next])
			next++
			cols := st.Snapshot().Log().Columns()
			b.StartTimer()
			sinkIndex = cols.SortedIndex(f)
			b.StopTimer()
		}
	})
}
