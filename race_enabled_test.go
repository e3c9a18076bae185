//go:build race

package indfd

// raceDetectorEnabled reports whether this test binary was built with
// -race. Race instrumentation itself allocates, so the exact-zero pin
// on the warm pooled path only holds without -race.
const raceDetectorEnabled = true
