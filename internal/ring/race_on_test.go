//go:build race

package ring

// raceEnabled: see race_off_test.go.
const raceEnabled = true
