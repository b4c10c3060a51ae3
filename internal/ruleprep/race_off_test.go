//go:build !race

package ruleprep

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip themselves when it does.
const raceEnabled = false
