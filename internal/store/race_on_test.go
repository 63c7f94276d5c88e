//go:build race

package store

// raceEnabled: see race_off_test.go.
const raceEnabled = true
