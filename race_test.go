//go:build race

package repro

// The race detector makes sync.Pool drop pooled values at random, so a
// pooled path's allocation count is meaningful only without it.
func init() { raceEnabled = true }
