//go:build race

package features

// poisonSkipped makes a masked FillSample overwrite the columns it skips
// (see PairMatrix.PoisonSkipped). It is on under the race detector, the
// build every -race test leg runs, so those legs — the goldens and the
// oracle among them — read poison wherever a skipped column is read.
const poisonSkipped = true
