//go:build !race

package exec_test

// raceDetector reports whether the test binary was built with -race.
const raceDetector = false
