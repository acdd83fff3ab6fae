//go:build !race

package mapserver

// raceEnabled reports whether the race detector is active. See the
// race-tagged twin of this file for why the allocation pin is skipped
// when it is.
const raceEnabled = false
