//go:build !race

package obs

// See race_enabled_test.go.
const raceDetectorEnabled = false
