package joblog

import (
	"reflect"
	"testing"
)

// The generation counter exists because count-keyed invalidation cannot
// see every mutation: a log cut back by hand and refilled by Append to
// the same length must not serve the warm memos. This test pins that
// every memo — columns, ID index, domains, ranges — rebuilds after an
// Append.
func TestMemosFreshAfterAppend(t *testing.T) {
	l := memoLog() // a: (east, 3), b: (west, 7)
	l.Columns()
	for i := 0; i <= idScanLookups; i++ { // past the scans, so the map is built
		l.FindIndex("a")
	}
	l.Domain("site")
	l.NumericRange("x")

	// Cut back by hand and refill to the original length: the count
	// alone cannot distinguish this log from the warm one.
	l.Records = l.Records[:1]
	l.MustAppend(&Record{ID: "c", Values: []Value{Str("south"), Num(-2)}})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}

	cols := l.Columns()
	if got := cols.Col(1).Num[1]; got != -2 {
		t.Errorf("Num[1] after refill = %v, want -2 (stale columns)", got)
	}
	if _, ok := l.FindIndex("b"); ok {
		t.Error("Find still resolves dropped ID b (stale index)")
	}
	if i, ok := l.FindIndex("c"); !ok || i != 1 {
		t.Errorf("FindIndex(c) = %d, %v, want 1, true", i, ok)
	}
	if got := l.Domain("site"); !reflect.DeepEqual(got, []string{"east", "south"}) {
		t.Errorf("Domain after refill = %v (stale stats)", got)
	}
	if min, max, _ := l.NumericRange("x"); min != -2 || max != 3 {
		t.Errorf("NumericRange after refill = [%v, %v], want [-2, 3] (stale stats)", min, max)
	}
}
