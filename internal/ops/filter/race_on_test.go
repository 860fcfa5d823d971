//go:build race

package filter

// raceEnabled reports that this test binary was built with the race
// detector, which inflates allocation counts and slows the oracles.
func init() { raceEnabled = true }
