package ingest

import (
	"sort"

	"lumos5g/internal/dataset"
	"lumos5g/internal/obs"
)

// The ingest/refit instrument set, registered into the owning server's
// registry so /metrics and /healthz read the same counters (the repo's
// single-bookkeeping rule). Reject reasons are a closed label set —
// the dataset validity table's field names plus the gate's own
// structural reasons — so the cardinality of
// lumos_ingest_rejected_total is bounded by construction.

// Gate reasons that are not per-field range violations.
const (
	reasonMissingField = "missing_field"
	reasonRadio        = "radio"
	reasonGPSFix       = "gps_fix"
	reasonGPSTrace     = "gps_trace"
)

// Refit rejection reasons (lumos_refit_rejected_total{reason=...}).
const (
	refitReasonTrain    = "train"
	refitReasonPanic    = "panic"
	refitReasonArtifact = "artifact"
	refitReasonGate     = "gate"
)

// RejectReasons returns the closed set of reason labels the ingest gate
// can emit, sorted. Exported so /healthz snapshots and tests can
// enumerate the full label space without guessing.
func RejectReasons() []string {
	bounds := dataset.FieldBounds()
	out := make([]string, 0, len(bounds)+4)
	for field := range bounds {
		out = append(out, field)
	}
	out = append(out, reasonMissingField, reasonRadio, reasonGPSFix, reasonGPSTrace)
	sort.Strings(out)
	return out
}

var refitReasons = []string{refitReasonTrain, refitReasonPanic, refitReasonArtifact, refitReasonGate}

// swapLatencyBuckets spans the SetChain swap itself (microseconds: a
// pointer swap under a write lock plus cache reset) up to whole-refit
// durations when the histogram is used for end-to-end refit timing.
var swapLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 5, 30, 120,
}

type metrics struct {
	accepted *obs.Counter
	rejected *obs.CounterVec
	shed     *obs.Counter
	batches  *obs.Counter

	refits         *obs.Counter
	refitsAccepted *obs.Counter
	refitsRejected *obs.CounterVec

	// Train-vs-serve drift: holdout MAE of the live generation on the
	// current window (how far the world moved from what the serving
	// model learned) next to the candidate's MAE on the same holdout.
	liveHoldoutMAE *obs.Gauge
	candHoldoutMAE *obs.Gauge

	// Durations by phase: "refit" is the whole drain→train→gate cycle,
	// "train" the chain training inside it, "swap" the SetChain
	// hot-swap alone.
	duration *obs.HistogramVec
}

func newMetrics(reg *obs.Registry, ing *Ingestor) *metrics {
	m := &metrics{
		accepted: reg.NewCounter("lumos_ingest_accepted_total",
			"Samples admitted by the quality gate and queued for refit."),
		rejected: reg.NewCounterVec("lumos_ingest_rejected_total",
			"Samples rejected by the quality gate, by reason.", "reason"),
		shed: reg.NewCounter("lumos_ingest_shed_total",
			"Gate-passing samples dropped because the ingest queue was full (backpressure)."),
		batches: reg.NewCounter("lumos_ingest_batches_total",
			"POST /ingest batches decoded."),
		refits: reg.NewCounter("lumos_refit_total",
			"Refit attempts (drain -> train -> gate cycles that had enough samples)."),
		refitsAccepted: reg.NewCounter("lumos_refit_accepted_total",
			"Refits whose candidate passed the holdout gate and was hot-swapped in."),
		refitsRejected: reg.NewCounterVec("lumos_refit_rejected_total",
			"Refits rolled back with the old generation kept serving, by reason.", "reason"),
		liveHoldoutMAE: reg.NewGauge("lumos_refit_live_holdout_mae_mbps",
			"Holdout MAE of the live generation on the latest refit window (serve-side drift)."),
		candHoldoutMAE: reg.NewGauge("lumos_refit_candidate_holdout_mae_mbps",
			"Holdout MAE of the latest refit candidate on the same window."),
		duration: reg.NewHistogramVec("lumos_refit_duration_seconds",
			"Refit durations by phase: the whole cycle (refit), its chain training (train) and the hot-swap (swap).", swapLatencyBuckets, "phase"),
	}
	// Pre-create every reason child so /metrics shows the full closed
	// label set at zero instead of labels popping into existence.
	for _, r := range RejectReasons() {
		m.rejected.With(r)
	}
	for _, r := range refitReasons {
		m.refitsRejected.With(r)
	}
	reg.NewGaugeFunc("lumos_ingest_queue_depth",
		"Gate-passing samples waiting in the bounded ingest queue.",
		func() float64 { return float64(ing.queueDepth()) })
	reg.NewGaugeFunc("lumos_ingest_window_samples",
		"Samples in the sliding refit window.",
		func() float64 { s, _ := ing.windowStats(); return float64(s) })
	reg.NewGaugeFunc("lumos_ingest_window_cells",
		"Distinct quantized grid cells covered by the refit window.",
		func() float64 { _, c := ing.windowStats(); return float64(c) })
	return m
}
