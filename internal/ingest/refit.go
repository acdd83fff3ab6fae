package ingest

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"lumos5g"
	"lumos5g/internal/engine"
	"lumos5g/internal/features"
	"lumos5g/internal/geo"
)

// The gated refit loop: drain the queue into the window, retrain the
// fallback chain on a train split, round-trip the candidate through
// the CRC artifact envelope, score it against the live generation on a
// holdout split, and hot-swap only if it does not regress beyond the
// gate. Every failure mode — training error, training panic, artifact
// corruption, gate regression — rolls back: the old generation keeps
// serving untouched and lumos_refit_rejected_total{reason} counts why.

// ChainSwapper is the serving surface a refit promotes into.
// *mapserver.Server satisfies it; SetChain must be safe under
// concurrent predict traffic (it is — it swaps engine and cache under
// the server's write lock).
type ChainSwapper interface {
	Chain() *lumos5g.FallbackChain
	SetChain(*lumos5g.FallbackChain)
}

// TrainFunc retrains a chain on a window snapshot. The default is
// lumos5g.TrainCalibratedFallbackChain; tests swap in
// corrupt/regressing/panicky trainers to drive the rollback paths.
type TrainFunc func(d *lumos5g.Dataset, groups []lumos5g.FeatureGroup, m lumos5g.Model, sc lumos5g.Scale) (*lumos5g.FallbackChain, error)

// refitGroups are the chain tiers a refit retrains: the groups whose
// features every gate-passing sample carries, so a window of live
// samples never poisons training with NaNs the way absent LTE sensors
// would under GroupLMC.
var refitGroups = []lumos5g.FeatureGroup{lumos5g.GroupLM, lumos5g.GroupL}

// RefitConfig tunes the retrain loop. Zero values take defaults.
type RefitConfig struct {
	// Interval between refit attempts. Default 30s.
	Interval time.Duration
	// DrainInterval between queue->window drains, so the window keeps
	// filling between refits and the queue keeps room for uploads.
	// Default 100ms, whatever Interval is.
	DrainInterval time.Duration
	// MinSamples in the window before a refit fires. Default 200.
	MinSamples int
	// GateFrac is the allowed relative regression: the candidate is
	// rejected if its holdout MAE exceeds the live generation's by
	// more than this fraction. Default 0.10.
	GateFrac float64
	// Seed for split and training determinism; the refit sequence
	// number is folded in so successive refits resample.
	Seed uint64
	// Workers bounds how many chain tiers a refit trains at once (the
	// trainer's Scale.Workers): n>0 uses n workers, 0 uses one worker
	// per CPU, and 1 keeps a refit on one core, since each GBDT fit runs
	// on its tier's goroutine. The fit is byte-identical for every
	// worker count, so this only changes how fast a refit trains.
	Workers int
	// ArtifactPath, when set, is where accepted generations live: the
	// candidate is written to ArtifactPath+".candidate", and promoted
	// to ArtifactPath by rename on acceptance — the same file a
	// WatchModelFile on another replica could follow. Empty means the
	// envelope round-trip happens in memory only.
	ArtifactPath string
	// Train overrides the trainer (tests). Default
	// TrainCalibratedFallbackChain.
	Train TrainFunc
}

func (c RefitConfig) withDefaults() RefitConfig {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.DrainInterval <= 0 {
		c.DrainInterval = 100 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 200
	}
	if c.GateFrac <= 0 {
		c.GateFrac = 0.10
	}
	if c.Train == nil {
		// Calibrated, so a refit never hot-swaps a chain that serves
		// intervals for one that silently stopped.
		c.Train = lumos5g.TrainCalibratedFallbackChain
	}
	return c
}

// RefitResult reports one refit cycle.
type RefitResult struct {
	// Skipped: too few window samples; nothing was attempted.
	Skipped bool
	// Swapped: candidate passed the gate and is now serving.
	Swapped bool
	// Reason is the rejection label when !Swapped && !Skipped.
	Reason string
	// LiveMAE / CandMAE are the holdout errors that drove the gate
	// decision (NaN when not reached).
	LiveMAE, CandMAE float64
	// Samples trained on (window size at snapshot).
	Samples int
}

// Start runs the drain + refit loop against sw until the returned stop
// is called; stop joins the loop goroutine. onEvent, when non-nil,
// receives every non-skipped cycle's outcome (binaries log it).
func (ing *Ingestor) Start(sw ChainSwapper, onEvent func(RefitResult, error)) (stop func()) {
	go func() {
		defer close(ing.doneCh)
		drain := time.NewTicker(ing.cfg.Refit.DrainInterval)
		refit := time.NewTicker(ing.cfg.Refit.Interval)
		defer drain.Stop()
		defer refit.Stop()
		var refits sync.WaitGroup
		defer refits.Wait()
		busy := make(chan struct{}, 1)
		for {
			select {
			case <-ing.stopCh:
				return
			case <-drain.C:
				ing.Drain()
			case <-refit.C:
				// Train off the loop goroutine so drains keep their
				// cadence during a long fit (a large-window GBDT fit
				// costs ~1 s); if the previous refit is still running,
				// skip this tick instead of queueing behind it.
				select {
				case busy <- struct{}{}:
				default:
					continue
				}
				refits.Add(1)
				go func() {
					defer refits.Done()
					defer func() { <-busy }()
					res, err := ing.RefitNow(sw)
					if onEvent != nil && !res.Skipped {
						onEvent(res, err)
					}
				}()
			}
		}
	}()
	return func() {
		ing.stopOnce.Do(func() { close(ing.stopCh) })
		<-ing.doneCh
	}
}

// RefitNow runs one synchronous refit cycle: drain, snapshot, train,
// envelope round-trip, holdout gate, swap or roll back. Safe under
// concurrent ingest traffic; concurrent RefitNow calls serialise.
func (ing *Ingestor) RefitNow(sw ChainSwapper) (RefitResult, error) {
	ing.refitMu.Lock()
	defer ing.refitMu.Unlock()

	ing.mu.Lock()
	ing.drainLocked()
	snap := ing.win.snapshot()
	ing.mu.Unlock()

	cfg := ing.cfg.Refit
	res := RefitResult{Samples: len(snap.Records), LiveMAE: math.NaN(), CandMAE: math.NaN()}
	if len(snap.Records) < cfg.MinSamples {
		res.Skipped = true
		return res, nil
	}
	ing.m.refits.Inc()
	ing.refitSeq++
	t0 := time.Now()
	defer func() { ing.m.duration.With("refit").Observe(time.Since(t0).Seconds()) }()

	reject := func(reason string, err error) (RefitResult, error) {
		res.Reason = reason
		ing.m.refitsRejected.With(reason).Inc()
		ing.lastRefitErr = fmt.Sprintf("refit %d (%s): %v", ing.refitSeq, reason, err)
		return res, err
	}

	// The same seeded 70/30 split (dataset.TrainFrac) evaluation and
	// calibration use: train on one side, gate on the other.
	train, holdout := snap.SplitTrainTest(cfg.Seed + ing.refitSeq)
	tt := time.Now()
	cand, err := ing.trainSafe(train)
	ing.m.duration.With("train").Observe(time.Since(tt).Seconds())
	if err != nil {
		if _, panicked := err.(*trainPanic); panicked {
			return reject(refitReasonPanic, err)
		}
		return reject(refitReasonTrain, err)
	}

	// Round-trip through the CRC envelope: what swaps in is what a
	// restart would load, and a candidate that cannot survive its own
	// serialisation is rejected before it can serve.
	loaded, err := ing.envelope(cand)
	if err != nil {
		return reject(refitReasonArtifact, err)
	}

	res.LiveMAE = chainMAE(sw.Chain(), holdout)
	res.CandMAE = chainMAE(loaded, holdout)
	ing.m.liveHoldoutMAE.Set(res.LiveMAE)
	ing.m.candHoldoutMAE.Set(res.CandMAE)
	if math.IsNaN(res.CandMAE) {
		return reject(refitReasonGate, fmt.Errorf("candidate holdout MAE is NaN"))
	}
	if !math.IsNaN(res.LiveMAE) && res.CandMAE > res.LiveMAE*(1+cfg.GateFrac) {
		return reject(refitReasonGate, fmt.Errorf(
			"candidate MAE %.2f regresses past live %.2f by more than %.0f%%",
			res.CandMAE, res.LiveMAE, cfg.GateFrac*100))
	}

	ts := time.Now()
	sw.SetChain(loaded)
	ing.m.duration.With("swap").Observe(time.Since(ts).Seconds())
	if cfg.ArtifactPath != "" {
		// Promote the already-fsynced candidate file; rename is atomic
		// so a watcher never sees a half-written artifact.
		if err := os.Rename(cfg.ArtifactPath+".candidate", cfg.ArtifactPath); err != nil {
			ing.lastRefitErr = fmt.Sprintf("refit %d: promote: %v", ing.refitSeq, err)
		}
	}
	ing.m.refitsAccepted.Inc()
	ing.lastRefitErr = ""
	res.Swapped = true
	return res, nil
}

// trainPanic marks a trainer crash recovered into an error.
type trainPanic struct{ v any }

func (p *trainPanic) Error() string { return fmt.Sprintf("trainer panicked: %v", p.v) }

// trainSafe runs the trainer with panic containment: a crashing refit
// must roll back like any other failure, not take the server down.
func (ing *Ingestor) trainSafe(d *lumos5g.Dataset) (c *lumos5g.FallbackChain, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, &trainPanic{v: r}
		}
	}()
	cfg := ing.cfg.Refit
	// GDBT is the one family the artifact envelope stores.
	sc := lumos5g.Scale{Seed: cfg.Seed + ing.refitSeq, Workers: cfg.Workers}
	return cfg.Train(d, refitGroups, lumos5g.ModelGDBT, sc)
}

// envelope round-trips the candidate through the CRC-framed artifact
// codec — on disk when ArtifactPath is set, in memory otherwise — and
// returns the reloaded chain that will actually serve.
func (ing *Ingestor) envelope(c *lumos5g.FallbackChain) (*lumos5g.FallbackChain, error) {
	if path := ing.cfg.Refit.ArtifactPath; path != "" {
		cpath := path + ".candidate"
		if err := c.SaveFile(cpath); err != nil {
			return nil, err
		}
		return lumos5g.LoadChainFile(cpath)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return lumos5g.LoadChain(&buf)
}

// chainMAE scores a chain on holdout records through the typed rows
// /predict serves — engine.QueryOf over each record's own pixel, speed
// and bearing — in one PredictQueries call, so the gate measures what
// clients will actually see, not training-matrix error. NaN when the
// chain is nil or the holdout is empty.
func chainMAE(c *lumos5g.FallbackChain, holdout *lumos5g.Dataset) float64 {
	recs := holdout.Records
	if c == nil || len(recs) == 0 {
		return math.NaN()
	}
	qs := make([]features.Query, len(recs))
	for i := range recs {
		r := &recs[i]
		var speed, bearing *float64
		if !math.IsNaN(r.SpeedKmh) {
			speed = &r.SpeedKmh
		}
		if !math.IsNaN(r.CompassDeg) {
			bearing = &r.CompassDeg
		}
		qs[i] = engine.QueryOf(geo.Pixel{X: r.PixelX, Y: r.PixelY, Zoom: geo.DefaultZoom}, speed, bearing)
	}
	out := make([]lumos5g.ChainPrediction, len(recs))
	c.PredictQueries(qs, out)
	var sum float64
	for i := range out {
		sum += math.Abs(out[i].Mbps - recs[i].ThroughputMbps)
	}
	return sum / float64(len(recs))
}
