package analysis

// All returns the full pxqlvet suite in a stable order. The driver and
// the tests share this registry, so a check cannot be silently dropped
// from the binary.
func All() []*Analyzer {
	return []*Analyzer{MapIter, WallRand, FloatReduce, ShardErr, WireCheck}
}
