//go:build !race

package hades_test

// raceEnabled reports whether the test binary runs under the race
// detector; see race_on_test.go.
const raceEnabled = false
