package analysis

// All returns the full pxqlvet suite in a stable order. The drivers
// (standalone and unitchecker) and the tests share this registry, so a
// check cannot be silently dropped from one entry point.
func All() []*Analyzer {
	return []*Analyzer{MapIter, WallRand, FloatReduce, ShardErr, WireCheck}
}
