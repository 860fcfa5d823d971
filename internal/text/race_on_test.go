//go:build race

package text

// raceEnabled reports that this test binary was built with the race
// detector, which inflates allocation counts and slows the oracles.
func init() { raceEnabled = true }
