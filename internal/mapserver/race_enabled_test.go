//go:build race

package mapserver

// raceEnabled reports whether the race detector is active. Under the
// race detector sync.Pool deliberately drops ~25% of Put calls
// (randomly, to widen the schedules the detector observes), so the
// pooled batch buffer cannot hold an allocation-count pin there.
const raceEnabled = true
