// Package ingest closes the measure→train→serve loop: it accepts
// batched per-second Table-1 samples from UEs in the field
// (POST /ingest), gates them through the same per-field validity table
// and §3.1 GPS-error rules the CSV loaders apply, buffers survivors in
// a bounded queue with explicit backpressure, aggregates them into a
// sliding window keyed by the same quantized grid cells the serving
// tier shards by, and periodically refits the fallback chain on that
// window — hot-swapping the new generation in only after it clears a
// holdout gate against the live one, and rolling back (old generation
// keeps serving, rejection counted) when it does not.
//
// The package deliberately knows nothing about mapserver or fleet:
// both mount Ingestor.ServeHTTP and hand it their *obs.Registry and a
// ChainSwapper, so the predict path never blocks on ingest and the
// loop works identically behind a single server or a routed fleet.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"lumos5g/internal/dataset"
	"lumos5g/internal/geo"
	"lumos5g/internal/obs"
	"lumos5g/internal/radio"
	"lumos5g/internal/wire"
)

// MaxBatchSamples bounds the samples of one POST /ingest body, so a
// single request cannot monopolise the queue (wire.MaxBodyBytes bounds
// its bytes).
const MaxBatchSamples = 4096

// Sample is the wire form of one per-second Table-1 measurement.
// Required fields are pointers so "absent" is distinguishable from a
// legitimate zero — a sample with no latitude is rejected as
// missing_field, not silently placed on the equator. Optional sensor
// fields left null become NaN in the stored record, exactly like an
// empty CSV cell.
type Sample struct {
	// Trace bookkeeping: which UE pass this second belongs to. The
	// §3.1 trace-mean GPS rule aggregates over (area, trajectory,
	// pass), so UEs should keep these stable within a run.
	Area       string `json:"area"`
	Trajectory string `json:"trajectory"`
	Pass       int    `json:"pass"`
	Second     int    `json:"second"`

	// Required measurements.
	Lat            *float64 `json:"lat"`
	Lon            *float64 `json:"lon"`
	GPSAccuracy    *float64 `json:"gps_accuracy"`
	SpeedKmh       *float64 `json:"speed_kmh"`
	CompassDeg     *float64 `json:"compass_deg"`
	ThroughputMbps *float64 `json:"throughput_mbps"`

	// Optional sensors; null/absent means the sensor had no reading.
	CompassAcc *float64 `json:"compass_acc,omitempty"`
	LteRsrp    *float64 `json:"lte_rsrp,omitempty"`
	LteRsrq    *float64 `json:"lte_rsrq,omitempty"`
	LteRssi    *float64 `json:"lte_rssi,omitempty"`
	SSRsrp     *float64 `json:"ss_rsrp,omitempty"`
	SSRsrq     *float64 `json:"ss_rsrq,omitempty"`
	SSSinr     *float64 `json:"ss_sinr,omitempty"`

	// Radio is "NR", "LTE", or empty (defaults to NR — the 5G path).
	Radio        string `json:"radio,omitempty"`
	CellID       *int   `json:"cell_id,omitempty"`
	HorizontalHO bool   `json:"horizontal_ho,omitempty"`
	VerticalHO   bool   `json:"vertical_ho,omitempty"`
}

// BatchResult is the /ingest response body: a per-batch accounting of
// where every sample went. Dropped counts gate-passing samples shed by
// the full queue — the client should retry those after Retry-After.
type BatchResult struct {
	Accepted int            `json:"accepted"`
	Rejected int            `json:"rejected"`
	Dropped  int            `json:"dropped"`
	Reasons  map[string]int `json:"reasons,omitempty"`
}

// QuarantineEntry is one recently rejected sample kept for debugging.
type QuarantineEntry struct {
	Reason string `json:"reason"`
	Trace  string `json:"trace"`
}

// Health is the ingest section of /healthz: the same counters /metrics
// exports, snapshot as JSON.
type Health struct {
	Accepted       uint64            `json:"accepted"`
	Rejected       uint64            `json:"rejected"`
	Shed           uint64            `json:"shed"`
	RejectReasons  map[string]uint64 `json:"reject_reasons,omitempty"`
	QueueDepth     int               `json:"queue_depth"`
	QueueCap       int               `json:"queue_cap"`
	WindowSamples  int               `json:"window_samples"`
	WindowCells    int               `json:"window_cells"`
	Refits         uint64            `json:"refits"`
	RefitsAccepted uint64            `json:"refits_accepted"`
	RefitsRejected uint64            `json:"refits_rejected"`
	LastRefitError string            `json:"last_refit_error,omitempty"`
	Quarantine     []QuarantineEntry `json:"quarantine_recent,omitempty"`
}

// Config sizes the ingest pipeline. Zero values take defaults.
type Config struct {
	// QueueSize bounds the gate-to-refit queue; a full queue sheds
	// (429 + Retry-After) instead of blocking. Default 4096.
	QueueSize int
	// WindowSize bounds the sliding refit window. Default 65536.
	WindowSize int
	// CellCap bounds how many window samples one quantized grid cell may
	// hold; admitting a sample into a full cell evicts that cell's oldest
	// sample first, so a parked UE cannot dominate the window. 0 (the
	// default) disables the cap; negative disables it too.
	CellCap int
	// Refit configures the retrain loop.
	Refit RefitConfig
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 65536
	}
	if c.CellCap < 0 {
		c.CellCap = 0
	}
	c.Refit = c.Refit.withDefaults()
	return c
}

// quarantineKeep bounds the recent-reject ring surfaced in /healthz.
const quarantineKeep = 8

// Ingestor is the gate + queue + window + refit pipeline behind one
// server's POST /ingest.
type Ingestor struct {
	cfg Config
	m   *metrics

	mu     sync.Mutex
	queue  []dataset.Record // ring: next pop at qhead, qlen live
	qhead  int
	qlen   int
	traces map[dataset.TraceKey]*traceAcc
	win    *window
	quar   []QuarantineEntry // ring of the last quarantineKeep rejects
	quarN  int

	refitMu      sync.Mutex // serialises refit cycles
	refitSeq     uint64
	lastRefitErr string
	stopOnce     sync.Once
	stopCh       chan struct{}
	doneCh       chan struct{}
}

// New builds an Ingestor and registers its instruments into reg (one
// Ingestor per registry — obs panics on duplicate registration, which
// is the correct failure for double-wiring).
func New(reg *obs.Registry, cfg Config) *Ingestor {
	cfg = cfg.withDefaults()
	ing := &Ingestor{
		cfg:    cfg,
		queue:  make([]dataset.Record, cfg.QueueSize),
		traces: make(map[dataset.TraceKey]*traceAcc),
		win:    newWindow(cfg.WindowSize, cfg.CellCap),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	ing.m = newMetrics(reg, ing)
	return ing
}

// ServeHTTP handles POST /ingest. The handler only gates and enqueues
// — aggregation and training happen on the refit goroutine — so its
// cost per sample is a validation pass and a ring append, and it never
// touches the predict path's engine lock.
func (ing *Ingestor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	samples, err := DecodeBatch(r.Body)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ing.m.batches.Inc()
	res := ing.Ingest(samples)
	if res.Dropped > 0 && res.Accepted == 0 {
		// Nothing fit: whole-batch backpressure. 429 tells the UE the
		// server is healthy but saturated; Retry-After matches the
		// shed middleware's convention so fleet retry logic treats
		// both identically.
		w.Header().Set("Retry-After", "1")
		wire.WriteJSON(w, http.StatusTooManyRequests, res)
		return
	}
	wire.WriteJSON(w, http.StatusOK, res)
}

// DecodeBatch reads one POST /ingest body: a non-empty JSON array of at
// most MaxBatchSamples samples, followed by nothing but whitespace. The
// error text is client-facing; the replica's handler and the fleet
// router both answer it as a 400, so a batch one rejects the other
// rejects in the same words.
func DecodeBatch(body io.Reader) ([]Sample, error) {
	var samples []Sample
	if err := wire.DecodeJSON(body, &samples); err != nil {
		return nil, errors.New("body must be a JSON array of samples: " + err.Error())
	}
	if len(samples) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(samples) > MaxBatchSamples {
		return nil, fmt.Errorf("batch of %d samples exceeds limit %d", len(samples), MaxBatchSamples)
	}
	return samples, nil
}

// Ingest gates and enqueues a decoded batch, returning the per-sample
// accounting. ServeHTTP calls it once per POST /ingest; it is exported
// for tests and benchmarks that feed samples without HTTP.
func (ing *Ingestor) Ingest(samples []Sample) BatchResult {
	res := BatchResult{}
	for i := range samples {
		rec, reason := ing.gate(&samples[i])
		if reason != "" {
			res.Rejected++
			if res.Reasons == nil {
				res.Reasons = make(map[string]int)
			}
			res.Reasons[reason]++
			ing.m.rejected.With(reason).Inc()
			ing.quarantinePut(reason, &samples[i])
			continue
		}
		if ing.tryPush(rec) {
			res.Accepted++
			ing.m.accepted.Inc()
		} else {
			res.Dropped++
			ing.m.shed.Inc()
		}
	}
	return res
}

// tryPush appends to the bounded ring; false means full (shed).
func (ing *Ingestor) tryPush(rec dataset.Record) bool {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.qlen == len(ing.queue) {
		return false
	}
	ing.queue[(ing.qhead+ing.qlen)%len(ing.queue)] = rec
	ing.qlen++
	return true
}

// drainLocked moves every queued record into the sliding window.
func (ing *Ingestor) drainLocked() int {
	n := ing.qlen
	for i := 0; i < n; i++ {
		ing.win.add(ing.queue[(ing.qhead+i)%len(ing.queue)])
	}
	ing.qhead = (ing.qhead + n) % len(ing.queue)
	ing.qlen = 0
	return n
}

// Drain moves queued records into the window outside the refit cycle
// (the refit loop calls it on its own cadence; tests call it to make
// window state deterministic). Returns how many records moved.
func (ing *Ingestor) Drain() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.drainLocked()
}

func (ing *Ingestor) queueDepth() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.qlen
}

func (ing *Ingestor) windowStats() (samples, cells int) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.win.stats()
}

func (ing *Ingestor) quarantinePut(reason string, s *Sample) {
	e := QuarantineEntry{
		Reason: reason,
		Trace:  fmt.Sprintf("%s/%s/pass%d@%ds", s.Area, s.Trajectory, s.Pass, s.Second),
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if len(ing.quar) < quarantineKeep {
		ing.quar = append(ing.quar, e)
	} else {
		ing.quar[ing.quarN%quarantineKeep] = e
	}
	ing.quarN++
}

// Health snapshots the pipeline for /healthz. It reads the same obs
// instruments /metrics exports, so the two views cannot drift.
func (ing *Ingestor) Health() Health {
	h := Health{
		QueueCap: len(ing.queue),
		Accepted: ing.m.accepted.Value(),
		Shed:     ing.m.shed.Value(),
		Refits:   ing.m.refits.Value(),
	}
	for _, reason := range RejectReasons() {
		if n := ing.m.rejected.Total(map[string]string{"reason": reason}); n > 0 {
			if h.RejectReasons == nil {
				h.RejectReasons = make(map[string]uint64)
			}
			h.RejectReasons[reason] = n
			h.Rejected += n
		}
	}
	h.RefitsAccepted = ing.m.refitsAccepted.Value()
	h.RefitsRejected = ing.m.refitsRejected.Total(nil)

	ing.mu.Lock()
	h.QueueDepth = ing.qlen
	h.WindowSamples, h.WindowCells = ing.win.stats()
	// Oldest-first copy of the quarantine ring.
	if n := len(ing.quar); n > 0 {
		h.Quarantine = make([]QuarantineEntry, 0, n)
		start := 0
		if ing.quarN > quarantineKeep {
			start = ing.quarN % quarantineKeep
		}
		for i := 0; i < n; i++ {
			h.Quarantine = append(h.Quarantine, ing.quar[(start+i)%n])
		}
	}
	ing.mu.Unlock()

	ing.refitMu.Lock()
	h.LastRefitError = ing.lastRefitErr
	ing.refitMu.Unlock()
	return h
}

// toRecord converts a gate-checked sample into the canonical dataset
// record: pixelised at the paper's zoom, mobility mode derived from
// speed. Call only after requiredPresent — it dereferences the
// required pointers.
func (s *Sample) toRecord() dataset.Record {
	px := geo.Pixelize(geo.LatLon{Lat: *s.Lat, Lon: *s.Lon}, geo.DefaultZoom)
	r := dataset.Record{
		Area:           s.Area,
		Trajectory:     s.Trajectory,
		Pass:           s.Pass,
		Second:         s.Second,
		Latitude:       *s.Lat,
		Longitude:      *s.Lon,
		GPSAccuracy:    *s.GPSAccuracy,
		SpeedKmh:       *s.SpeedKmh,
		CompassDeg:     *s.CompassDeg,
		ThroughputMbps: *s.ThroughputMbps,
		CompassAcc:     optF(s.CompassAcc),
		LteRsrp:        optF(s.LteRsrp),
		LteRsrq:        optF(s.LteRsrq),
		LteRssi:        optF(s.LteRssi),
		SSRsrp:         optF(s.SSRsrp),
		SSRsrq:         optF(s.SSRsrq),
		SSSinr:         optF(s.SSSinr),
		HorizontalHO:   s.HorizontalHO,
		VerticalHO:     s.VerticalHO,
		PanelDist:      math.NaN(),
		ThetaP:         math.NaN(),
		ThetaM:         math.NaN(),
		PixelX:         px.X,
		PixelY:         px.Y,
	}
	switch {
	case r.SpeedKmh < 0.5:
		r.Mode, r.Activity = radio.Stationary, "stationary"
	case r.SpeedKmh < 10:
		r.Mode, r.Activity = radio.Walking, "walking"
	default:
		r.Mode, r.Activity = radio.Driving, "driving"
	}
	if s.Radio == "LTE" {
		r.Radio = radio.RadioLTE
	} else {
		r.Radio = radio.RadioNR
	}
	if s.CellID != nil {
		r.CellID = *s.CellID
	}
	return r
}

func optF(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}
