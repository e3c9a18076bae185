//go:build !race

package ind

// See race_enabled_test.go.
const raceDetectorEnabled = false
