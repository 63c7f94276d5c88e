//go:build !race

package ring

// raceEnabled reports whether the race detector is active. The serial
// boundary sweep skips under -race: it runs 17 M single-goroutine
// operations, where the detector has nothing to find and a 50× slowdown.
const raceEnabled = false
