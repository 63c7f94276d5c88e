//go:build !race

package garnet_test

// raceEnabled reports whether the race detector is active. The surface
// census skips under -race: it is static analysis on one goroutine, and
// the detector only makes its type-check several times slower.
const raceEnabled = false
