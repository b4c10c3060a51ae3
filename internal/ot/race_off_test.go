//go:build !race

package ot

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip themselves when it does.
const raceEnabled = false
