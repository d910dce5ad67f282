//go:build race

package transport

// raceEnabled reports whether the race detector instruments this build;
// allocation gates skip under it, since its instrumentation allocates.
const raceEnabled = true
