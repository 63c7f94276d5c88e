//go:build !race

package core

// raceEnabled reports whether the race detector is active. Alloc-count
// tests of pooled paths skip under -race: the race runtime randomly
// drops sync.Pool puts, so pooled scratch spuriously allocates there.
const raceEnabled = false
