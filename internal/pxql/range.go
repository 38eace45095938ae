package pxql

import "math"

// ValueRange is the set of numeric feature values satisfying a single
// comparison atom, lowered to an interval so the sorted-index row seek
// can find the satisfying values instead of evaluating the atom per
// value. An open bound excludes its endpoint.
type ValueRange struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// AtomNumRange lowers a numeric comparison `x <op> c` to the interval of
// satisfying x. The second return is false when the operator has no
// contiguous interval form (OpNe, or an unknown op) — callers must fall
// back to per-value evaluation for those. A NaN constant satisfies no
// comparison, which lowers to the canonical empty range.
func AtomNumRange(op Op, c float64) (ValueRange, bool) {
	if math.IsNaN(c) {
		// NaN compares false under every operator: the empty interval.
		return ValueRange{Lo: 1, Hi: 0}, true
	}
	inf := math.Inf(1)
	switch op {
	case OpEq:
		return ValueRange{Lo: c, Hi: c}, true
	case OpLt:
		return ValueRange{Lo: -inf, Hi: c, HiOpen: true}, true
	case OpLe:
		return ValueRange{Lo: -inf, Hi: c}, true
	case OpGt:
		return ValueRange{Lo: c, Hi: inf, LoOpen: true}, true
	case OpGe:
		return ValueRange{Lo: c, Hi: inf}, true
	default:
		return ValueRange{}, false
	}
}

// Contains reports whether x lies in the range. NaN is in no range.
func (r ValueRange) Contains(x float64) bool {
	if math.IsNaN(x) {
		return false
	}
	if x < r.Lo || (x == r.Lo && r.LoOpen) {
		return false
	}
	if x > r.Hi || (x == r.Hi && r.HiOpen) {
		return false
	}
	return true
}
