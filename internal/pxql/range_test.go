package pxql

import (
	"math"
	"testing"
)

func TestAtomNumRange(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		op      Op
		c       float64
		in, out []float64 // values that must / must not be contained
		ok      bool
	}{
		{OpEq, 5, []float64{5}, []float64{4.999, 5.001, nan}, true},
		{OpLt, 5, []float64{4.999, -1e30}, []float64{5, 5.001}, true},
		{OpLe, 5, []float64{5, -1e30}, []float64{5.001}, true},
		{OpGt, 5, []float64{5.001, 1e30}, []float64{5, 4.999}, true},
		{OpGe, 5, []float64{5, 1e30}, []float64{4.999}, true},
		{OpNe, 5, nil, nil, false},
	} {
		r, ok := AtomNumRange(tc.op, tc.c)
		if ok != tc.ok {
			t.Errorf("AtomNumRange(%v, %v) ok = %v, want %v", tc.op, tc.c, ok, tc.ok)
			continue
		}
		for _, x := range tc.in {
			if !r.Contains(x) {
				t.Errorf("AtomNumRange(%v, %v): %v not contained", tc.op, tc.c, x)
			}
		}
		for _, x := range tc.out {
			if r.Contains(x) {
				t.Errorf("AtomNumRange(%v, %v): %v wrongly contained", tc.op, tc.c, x)
			}
		}
	}
	// A NaN constant satisfies no comparison: the canonical empty range.
	for _, op := range []Op{OpEq, OpLt, OpLe, OpGt, OpGe} {
		r, ok := AtomNumRange(op, nan)
		if !ok || r.Lo <= r.Hi {
			t.Errorf("AtomNumRange(%v, NaN) = %+v, %v; want empty range", op, r, ok)
		}
	}
}
