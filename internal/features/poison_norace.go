//go:build !race

package features

// poisonSkipped is off outside the race detector: a masked fill leaves
// the columns it skips as they were (see poison_race.go).
const poisonSkipped = false
