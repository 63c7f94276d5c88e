//go:build race

package radio

// raceEnabled: see race_off_test.go.
const raceEnabled = true
