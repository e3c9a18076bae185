//go:build !race

package fd

// See race_enabled_test.go.
const raceDetectorEnabled = false
