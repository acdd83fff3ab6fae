//go:build !race

package forest

// raceEnabled reports whether the race detector is active. See the
// race-tagged twin of this file for why the allocation pins are skipped
// when it is.
const raceEnabled = false
