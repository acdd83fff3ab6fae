package ingest

import (
	"lumos5g/internal/dataset"
)

// The data-quality gate. Three layers, in order:
//
//  1. structural: every required wire field present, radio tag known;
//  2. per-field validity: dataset.ValidateRecord — the exact table the
//     CSV loaders apply, so a sample the lenient loader would
//     quarantine is rejected here with the same field name as reason;
//  3. §3.1 GPS discard rules: per-fix accuracy worse than
//     MaxFixGPSErrorMeters is dropped outright, and once a trace's
//     running mean accuracy exceeds MaxMeanGPSErrorMeters (after
//     minTraceSamples fixes) the whole trace is condemned — matching
//     the paper's "discard data where the average GPS error is high"
//     pass-level filter, applied incrementally.
//
// A rejected sample is counted under exactly one reason label (the
// first failing layer) and a copy of its trace identity kept in the
// quarantine ring.

const (
	// minTraceSamples is how many fixes a trace needs before the §3.1
	// mean-GPS-error rule can condemn it.
	minTraceSamples = 5
	// maxTraces bounds the per-trace GPS bookkeeping.
	maxTraces = 4096
)

// traceAcc tracks one trace's running GPS accuracy for the §3.1 mean
// rule. Condemned latches: once a trace's mean goes bad, later
// innocent-looking fixes from it are still rejected, like the batch
// filter that drops the whole pass.
type traceAcc struct {
	n         int
	sumAcc    float64
	condemned bool
}

// gate validates one wire sample and either returns its canonical
// record ("" reason) or the reason label it was rejected under.
func (ing *Ingestor) gate(s *Sample) (dataset.Record, string) {
	if s.Lat == nil || s.Lon == nil || s.GPSAccuracy == nil ||
		s.SpeedKmh == nil || s.CompassDeg == nil || s.ThroughputMbps == nil {
		return dataset.Record{}, reasonMissingField
	}
	switch s.Radio {
	case "", "NR", "LTE":
	default:
		return dataset.Record{}, reasonRadio
	}
	rec := s.toRecord()
	if err := dataset.ValidateRecord(&rec); err != nil {
		if fe, ok := err.(*dataset.FieldError); ok {
			return dataset.Record{}, fe.Field
		}
		return dataset.Record{}, reasonMissingField
	}
	if rec.GPSAccuracy > dataset.MaxFixGPSErrorMeters {
		return dataset.Record{}, reasonGPSFix
	}
	if !ing.traceAdmit(dataset.TraceKey{Area: rec.Area, Trajectory: rec.Trajectory, Pass: rec.Pass}, rec.GPSAccuracy) {
		return dataset.Record{}, reasonGPSTrace
	}
	return rec, ""
}

// traceAdmit folds one fix's accuracy into its trace's running mean
// and reports whether the trace is still trusted. The trace map is
// bounded: past maxTraces distinct traces, new traces skip the mean
// rule (their per-fix and per-field checks still apply) rather than
// letting an adversarial client grow server state without limit.
func (ing *Ingestor) traceAdmit(k dataset.TraceKey, acc float64) bool {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	t := ing.traces[k]
	if t == nil {
		if len(ing.traces) >= maxTraces {
			return true
		}
		t = &traceAcc{}
		ing.traces[k] = t
	}
	if t.condemned {
		return false
	}
	t.n++
	t.sumAcc += acc
	if t.n >= minTraceSamples && t.sumAcc/float64(t.n) > dataset.MaxMeanGPSErrorMeters {
		t.condemned = true
		return false
	}
	return true
}
