//go:build race

package camkoorde

// raceEnabled reports whether the race detector instruments this build;
// its instrumentation allocates, so allocation gates skip under it.
const raceEnabled = true
