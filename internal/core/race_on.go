//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// a released workspace is poisoned (see workspace.release), so every
// -race test leg reads poison wherever an explanation reads memory it
// gave back.
const raceEnabled = true
