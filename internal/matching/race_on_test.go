//go:build race

package matching

// raceEnabled reports that this binary was built with the race
// detector, which makes sync.Pool drop items at random: pooled scratch
// is then reallocated, so allocation counts say nothing about the
// steady-state path TestMatchIntoAllocs pins.
const raceEnabled = true
