//go:build race

package serve

// raceDetectorEnabled reports whether this test binary was built with
// -race. Race instrumentation itself allocates, so the allocation pins
// only hold without it.
const raceDetectorEnabled = true
