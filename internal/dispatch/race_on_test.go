//go:build race

package dispatch

// raceEnabled: see race_off_test.go.
const raceEnabled = true
