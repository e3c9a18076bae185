//go:build race

package search

// raceDetectorEnabled reports whether this test binary was built with
// -race. Race instrumentation itself allocates, so tests that pin exact
// allocation counts only hold without it.
const raceDetectorEnabled = true
