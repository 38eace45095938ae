//go:build !race

package joblog_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
