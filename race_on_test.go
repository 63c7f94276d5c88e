//go:build race

package garnet_test

// raceEnabled: see race_off_test.go.
const raceEnabled = true
