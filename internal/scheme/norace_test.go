//go:build !race

package scheme

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
