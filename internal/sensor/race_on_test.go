//go:build race

package sensor

// raceEnabled: see race_off_test.go.
const raceEnabled = true
