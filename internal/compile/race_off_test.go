//go:build !race

package compile_test

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
