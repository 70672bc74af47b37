//go:build race

package hades_test

// raceEnabled reports whether the test binary runs under the race
// detector, which the run-coverage census skips: it would time the
// detector, not the runs.
const raceEnabled = true
