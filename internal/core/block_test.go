package core

// Tests for numeric blocking: <raw>_issame = T on a numeric column is the
// 10% SIM band, so blocking must group similar-but-unequal values — by
// SIM-chain component (blockClassesOf) — or enumeration silently drops
// related pairs.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"perfxplain/internal/features"
	"perfxplain/internal/joblog"
	"perfxplain/internal/pxql"
)

// blockRecords groups recs by their blocking-class tuple over the
// blockIdx columns: groupByClasses over the columns' classes, the way
// candidateGroups calls it.
func blockRecords(cols *joblog.Columns, recs []int, blockIdx []int) [][]int {
	bcs := make([]blockClasses, len(blockIdx))
	for c, f := range blockIdx {
		bcs[c] = blockClassesOf(cols, f)
	}
	return groupByClasses(bcs, recs)
}

// numericLog is a two-column log: k holds ks, duration counts up by 30%
// a row, so every ordered pair is either observed (GT) or not related.
func numericLog(ks []joblog.Value) *joblog.Log {
	log := joblog.NewLog(joblog.NewSchema([]joblog.Field{
		{Name: "k", Kind: joblog.Numeric},
		{Name: "duration", Kind: joblog.Numeric},
	}))
	for i, k := range ks {
		log.MustAppend(&joblog.Record{ID: fmt.Sprint("r", i), Values: []joblog.Value{k, joblog.Num(100 * math.Pow(1.3, float64(i)))}})
	}
	return log
}

// checkNumericBlocking is the regression for exact-value blocking of a
// numeric isSame conjunct: on k = 100, 105, 100, 200, 210 under DESPITE
// k_issame = T, Definition 7 relates four ordered pairs (the later,
// slower row of each similar couple against the earlier) and only one of
// them — rows 2 and 0 — joins equal values. The engine must return all
// four under exec(log), whoever that makes the executor.
func checkNumericBlocking(t *testing.T, exec func(log *joblog.Log) Exec) {
	t.Helper()
	log := numericLog([]joblog.Value{joblog.Num(100), joblog.Num(105), joblog.Num(100), joblog.Num(200), joblog.Num(210)})
	q := &pxql.Query{
		Despite:  pxql.Predicate{{Feature: "k_issame", Op: pxql.OpEq, Value: features.ValT}},
		Observed: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: features.ValGT}},
		Expected: pxql.Predicate{{Feature: "duration_compare", Op: pxql.OpEq, Value: features.ValSIM}},
	}
	want := oracleRelated(log, features.Level3, q, q.Despite)
	if len(want) != 4 {
		t.Fatalf("Definition 7 relates %d pairs on the fixture, want 4: %v", len(want), want)
	}
	ex := exec(log)
	ps, err := runEnumSpecs(context.Background(), ex, log,
		PlanEnumShards(ex.Layout, log, features.Level3, q, q.Despite, 0, ex.shards(), 11))
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedSet(ps.flatten()); !reflect.DeepEqual(got, want) {
		t.Errorf("engine related set %v, Definition 7's %v", got, want)
	}
}

// CheckNumericBlocking exports the regression to oracle_pool_test.go
// (package core_test), which may import internal/shard.
var CheckNumericBlocking = checkNumericBlocking

func TestNumericBlockingLocal(t *testing.T) {
	checkNumericBlocking(t, func(*joblog.Log) Exec { return Exec{Parallelism: 2} })
}

// TestNumericBlockingClasses pins the SIM-chain classes themselves: a
// chain of neighbours each within 10% is one class even when its ends are
// not similar, a gap wider than 10% cuts it, equal values share a class,
// NaN and missing cells have none, and a column holding an infinity —
// similar to every finite value — is a single class.
func TestNumericBlockingClasses(t *testing.T) {
	nan, none := joblog.Num(math.NaN()), joblog.None()
	num := joblog.Num
	for _, tc := range []struct {
		name string
		ks   []joblog.Value
		want [][]int
	}{
		{"chain", []joblog.Value{num(125), num(100), nan, num(111), num(200), none, num(105), num(100)},
			[][]int{{0}, {1, 3, 6, 7}, {4}}},
		{"signs", []joblog.Value{num(-1), num(0), num(1), num(-1.05), num(0)},
			[][]int{{0, 3}, {1, 4}, {2}}},
		{"infinity", []joblog.Value{num(1), num(math.Inf(1)), num(1000), nan, num(-5)},
			[][]int{{0, 1, 2, 4}}},
	} {
		log := numericLog(tc.ks)
		recs := make([]int, log.Len())
		for i := range recs {
			recs[i] = i
		}
		if got := blockRecords(log.Columns(), recs, []int{0}); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: blocked into %v, want %v", tc.name, got, tc.want)
		}
	}
}
