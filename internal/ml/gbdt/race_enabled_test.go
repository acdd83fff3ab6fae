//go:build race

package gbdt

// raceEnabled reports whether the race detector is active. Under the
// race detector sync.Pool deliberately drops ~25% of Put calls
// (randomly, to widen the schedules the detector observes), so the
// batch kernel's pooled scratch cannot hold an allocation pin there.
const raceEnabled = true
