//go:build race

package mergeable

// The race detector allocates on its own account, so allocation budgets
// are meaningful only without it.
func init() { raceEnabled = true }
