//go:build race

package registry

// raceEnabled: see race_off_test.go.
const raceEnabled = true
