//go:build race

package scheme

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of the items put back, so allocation counts vary
// from run to run and exact allocation checks are skipped.
const raceEnabled = true
