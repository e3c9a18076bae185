//go:build !race

package search

// See race_enabled_test.go.
const raceDetectorEnabled = false
