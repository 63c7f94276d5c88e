//go:build !race

package radio

// raceEnabled reports whether the race detector is active. Alloc-count
// tests skip under -race: the race runtime randomly drops sync.Pool
// puts, so pooled scratch paths spuriously allocate there.
const raceEnabled = false
