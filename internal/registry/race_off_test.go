//go:build !race

package registry

// raceEnabled reports whether the race detector is active. The
// allocation pin on Require skips under -race: the race runtime randomly
// drops sync.Pool puts, so the pooled signer spuriously allocates there.
const raceEnabled = false
