//go:build race

package exp

// raceDetector reports whether the tests were built with -race.
const raceDetector = true
