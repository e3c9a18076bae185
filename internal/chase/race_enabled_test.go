//go:build race

package chase

// raceDetectorEnabled reports whether this test binary was built with
// -race. Race instrumentation itself allocates, so tests that pin exact
// allocation counts only hold without it; the differential
// (correctness) assertions and the pool's hit/miss counts hold either
// way.
const raceDetectorEnabled = true
