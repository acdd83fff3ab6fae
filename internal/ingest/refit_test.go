package ingest

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lumos5g"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/obs"
)

// campaign generates (once) a small cleaned Airport dataset to replay
// through the gate — the refit tests' training traffic.
var campaignOnce struct {
	sync.Once
	d *lumos5g.Dataset
}

func campaign(t *testing.T) *lumos5g.Dataset {
	t.Helper()
	campaignOnce.Do(func() {
		area, err := lumos5g.AreaByName("Airport")
		if err != nil {
			t.Fatal(err)
		}
		raw := lumos5g.GenerateArea(area, lumos5g.CampaignConfig{Seed: 1, WalkPasses: 3})
		campaignOnce.d, _ = lumos5g.CleanDataset(raw)
	})
	if campaignOnce.d == nil || campaignOnce.d.Len() == 0 {
		t.Fatal("empty campaign")
	}
	return campaignOnce.d
}

// feed replays cleaned campaign records through the full gate + queue,
// draining as it goes, and returns how many the gate admitted.
func feed(t *testing.T, ing *Ingestor, d *lumos5g.Dataset) int {
	t.Helper()
	admitted := 0
	for i := range d.Records {
		res := ing.Ingest([]Sample{SampleFromRecord(&d.Records[i])})
		admitted += res.Accepted
		if res.Dropped > 0 {
			ing.Drain()
			res = ing.Ingest([]Sample{SampleFromRecord(&d.Records[i])})
			admitted += res.Accepted
		}
	}
	ing.Drain()
	return admitted
}

// chainSwap is the test stand-in for a mapserver: it records every
// hot-swap.
type chainSwap struct {
	mu    sync.Mutex
	c     *lumos5g.FallbackChain
	swaps int
}

func (s *chainSwap) Chain() *lumos5g.FallbackChain {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

func (s *chainSwap) SetChain(c *lumos5g.FallbackChain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c = c
	s.swaps++
}

func refitIngestor(t *testing.T, rc RefitConfig) *Ingestor {
	t.Helper()
	if rc.MinSamples == 0 {
		rc.MinSamples = 50
	}
	if rc.Seed == 0 {
		rc.Seed = 7
	}
	return New(obs.NewRegistry(), Config{QueueSize: 8192, Refit: rc})
}

func TestRefitSkipsBelowMinSamples(t *testing.T) {
	ing := refitIngestor(t, RefitConfig{MinSamples: 1 << 30})
	feed(t, ing, campaign(t))
	sw := &chainSwap{}
	res, err := ing.RefitNow(sw)
	if err != nil || !res.Skipped {
		t.Fatalf("res=%+v err=%v, want skipped", res, err)
	}
	if ing.m.refits.Value() != 0 {
		t.Fatal("a skipped refit must not count as an attempt")
	}
}

func TestRefitTrainsAndSwaps(t *testing.T) {
	ing := refitIngestor(t, RefitConfig{})
	n := feed(t, ing, campaign(t))
	if n < 100 {
		t.Fatalf("gate admitted only %d cleaned records", n)
	}
	sw := &chainSwap{} // no live model: any finite candidate is an upgrade
	res, err := ing.RefitNow(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || sw.swaps != 1 || sw.Chain() == nil {
		t.Fatalf("res=%+v swaps=%d, want a swap", res, sw.swaps)
	}
	if math.IsNaN(res.CandMAE) || res.CandMAE < 0 {
		t.Fatalf("candidate MAE %v", res.CandMAE)
	}
	if !math.IsNaN(res.LiveMAE) {
		t.Fatalf("live MAE %v with no live model, want NaN", res.LiveMAE)
	}
	if ing.m.refitsAccepted.Value() != 1 {
		t.Fatal("lumos_refit_accepted_total not incremented")
	}
	// The train phase is timed inside the refit cycle.
	trainH, refitH := ing.m.duration.With("train"), ing.m.duration.With("refit")
	if trainH.Count() != 1 || refitH.Count() != 1 || !(trainH.Sum() > 0) || trainH.Sum() > refitH.Sum() {
		t.Fatalf("refit durations: train count %d sum %v, refit count %d sum %v; want one each, train within refit",
			trainH.Count(), trainH.Sum(), refitH.Count(), refitH.Sum())
	}

	// A second refit against the now-live model: whatever the gate
	// decides (seed variance can swing a small window either way), the
	// decision must be driven by a measured live MAE and reported
	// consistently in the drift gauges, and a rejection must leave the
	// swapped-in generation serving.
	prev := sw.Chain()
	res2, err := ing.RefitNow(sw)
	if res2.Skipped {
		t.Fatal("second refit skipped unexpectedly")
	}
	if math.IsNaN(res2.LiveMAE) {
		t.Fatal("live MAE not measured against the swapped-in model")
	}
	if g := ing.m.liveHoldoutMAE.Value(); g != res2.LiveMAE {
		t.Fatalf("drift gauge %v != result %v", g, res2.LiveMAE)
	}
	if g := ing.m.candHoldoutMAE.Value(); g != res2.CandMAE {
		t.Fatalf("candidate drift gauge %v != result %v", g, res2.CandMAE)
	}
	if !res2.Swapped {
		if err == nil || res2.Reason != "gate" {
			t.Fatalf("non-swap without a gate rejection: res=%+v err=%v", res2, err)
		}
		if sw.Chain() != prev {
			t.Fatal("gate rejection must keep the previous generation")
		}
	}
}

// A regressing candidate must be rejected by the holdout gate with the
// old generation untouched.
func TestRefitGateRejectsRegression(t *testing.T) {
	bad, err := lumos5g.NewFallbackChain(1e6) // constant absurd prediction
	if err != nil {
		t.Fatal(err)
	}
	ing := refitIngestor(t, RefitConfig{
		Train: func(*lumos5g.Dataset, []lumos5g.FeatureGroup, lumos5g.Model, lumos5g.Scale) (*lumos5g.FallbackChain, error) {
			return bad, nil
		},
	})
	feed(t, ing, campaign(t))

	live, err := lumos5g.TrainFallbackChain(campaign(t), []lumos5g.FeatureGroup{lumos5g.GroupL}, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sw := &chainSwap{c: live}
	res, err := ing.RefitNow(sw)
	if err == nil || res.Swapped {
		t.Fatalf("res=%+v err=%v, want gate rejection", res, err)
	}
	if res.Reason != "gate" {
		t.Fatalf("reason = %q, want gate", res.Reason)
	}
	if sw.Chain() != live || sw.swaps != 0 {
		t.Fatal("rejected candidate must leave the live chain untouched")
	}
	if ing.m.refitsRejected.Total(map[string]string{"reason": "gate"}) != 1 {
		t.Fatal("lumos_refit_rejected_total{reason=gate} not incremented")
	}
	if ing.Health().LastRefitError == "" {
		t.Fatal("rejection not surfaced in health")
	}
}

// A crashing trainer must roll back like any failure, not take the
// server down.
func TestRefitPanicRollsBack(t *testing.T) {
	ing := refitIngestor(t, RefitConfig{
		Train: func(*lumos5g.Dataset, []lumos5g.FeatureGroup, lumos5g.Model, lumos5g.Scale) (*lumos5g.FallbackChain, error) {
			panic("trainer exploded")
		},
	})
	feed(t, ing, campaign(t))
	live, _ := lumos5g.NewFallbackChain(250)
	sw := &chainSwap{c: live}
	res, err := ing.RefitNow(sw)
	if err == nil || res.Swapped || res.Reason != "panic" {
		t.Fatalf("res=%+v err=%v, want panic rollback", res, err)
	}
	if !strings.Contains(err.Error(), "trainer exploded") {
		t.Fatalf("panic value lost: %v", err)
	}
	if sw.Chain() != live {
		t.Fatal("panicking refit must leave the live chain untouched")
	}
}

// An artifact that cannot round-trip the CRC envelope is rejected
// before it can serve.
func TestRefitArtifactFailureRollsBack(t *testing.T) {
	ing := refitIngestor(t, RefitConfig{
		// Unwritable candidate path: SaveFile must fail.
		ArtifactPath: filepath.Join(t.TempDir(), "no", "such", "dir", "chain.l5g"),
	})
	feed(t, ing, campaign(t))
	live, _ := lumos5g.NewFallbackChain(250)
	sw := &chainSwap{c: live}
	res, err := ing.RefitNow(sw)
	if err == nil || res.Swapped || res.Reason != "artifact" {
		t.Fatalf("res=%+v err=%v, want artifact rollback", res, err)
	}
	if sw.Chain() != live {
		t.Fatal("artifact failure must leave the live chain untouched")
	}
}

// An accepted refit with an ArtifactPath promotes the candidate by
// atomic rename: the promoted file loads, the candidate is gone.
func TestRefitPromotesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.l5g")
	ing := refitIngestor(t, RefitConfig{ArtifactPath: path})
	feed(t, ing, campaign(t))
	sw := &chainSwap{}
	res, err := ing.RefitNow(sw)
	if err != nil || !res.Swapped {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if _, err := lumos5g.LoadChainFile(path); err != nil {
		t.Fatalf("promoted artifact does not load: %v", err)
	}
	if _, err := os.Stat(path + ".candidate"); !os.IsNotExist(err) {
		t.Fatalf("candidate file not promoted away: %v", err)
	}
}

// The Workers knob only changes how fast a refit trains: for the same
// window and seed, chains fitted with 1 worker and many workers must
// serialise to byte-identical artifacts (the PR 3 parity contract,
// now holding through the ingest path too).
func TestRefitWorkerParity(t *testing.T) {
	d := campaign(t)
	fit := func(workers int) []byte {
		ing := refitIngestor(t, RefitConfig{Workers: workers})
		feed(t, ing, d)
		sw := &chainSwap{}
		res, err := ing.RefitNow(sw)
		if err != nil || !res.Swapped {
			t.Fatalf("workers=%d: res=%+v err=%v", workers, res, err)
		}
		var buf bytes.Buffer
		if err := sw.Chain().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := fit(1)
	for _, workers := range []int{2, 4, 0} { // 0 = one worker per CPU
		if par := fit(workers); !bytes.Equal(serial, par) {
			t.Fatalf("refit with %d workers diverged from serial fit (%d vs %d artifact bytes)",
				workers, len(par), len(serial))
		}
	}
}

// TestRefitDrainIntervalDefault: the queue drains every 100 ms whatever
// the refit interval, so an hour between refits does not leave uploads
// shedding against a full queue; a set DrainInterval is kept.
func TestRefitDrainIntervalDefault(t *testing.T) {
	for _, iv := range []time.Duration{0, time.Second, time.Hour} {
		if got := (RefitConfig{Interval: iv}).withDefaults().DrainInterval; got != 100*time.Millisecond {
			t.Fatalf("Interval %v: DrainInterval %v, want 100ms", iv, got)
		}
	}
	if got := (RefitConfig{Interval: time.Hour, DrainInterval: time.Minute}).withDefaults().DrainInterval; got != time.Minute {
		t.Fatalf("set DrainInterval became %v", got)
	}
}

// Start's loop drains and refits on its tickers and stop joins it.
func TestStartLoopStops(t *testing.T) {
	ing := refitIngestor(t, RefitConfig{Interval: 10 * time.Millisecond, DrainInterval: 2 * time.Millisecond, MinSamples: 1 << 30})
	sw := &chainSwap{}
	stop := ing.Start(sw, nil)
	ing.Ingest([]Sample{validSample()})
	stop()
	// After stop, the loop goroutine is joined; a second stop is a no-op.
	stop()
}

// TestChainMAEMatchesServedMAE: the refit gate scores exactly what
// clients are served. chainMAE over a holdout equals, bit for bit, the
// mean absolute error of the same records answered by
// Engine.PredictIntervalBatch from their own pixels, speeds and
// bearings — the typed rows /predict and /predict/batch build.
func TestChainMAEMatchesServedMAE(t *testing.T) {
	d := campaign(t)
	chain, err := lumos5g.TrainCalibratedFallbackChain(d, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(&lumos5g.ThroughputMap{}, chain)
	if err != nil {
		t.Fatal(err)
	}
	pxs := make([]geo.Pixel, d.Len())
	speeds := make([]*float64, d.Len())
	bearings := make([]*float64, d.Len())
	for i := range d.Records {
		r := &d.Records[i]
		pxs[i] = geo.Pixel{X: r.PixelX, Y: r.PixelY, Zoom: geo.DefaultZoom}
		if !math.IsNaN(r.SpeedKmh) {
			speeds[i] = &r.SpeedKmh
		}
		if !math.IsNaN(r.CompassDeg) {
			bearings[i] = &r.CompassDeg
		}
	}
	var sum float64
	for i, p := range eng.PredictIntervalBatch(pxs, speeds, bearings) {
		sum += math.Abs(p.Mbps - d.Records[i].ThroughputMbps)
	}
	served := sum / float64(d.Len())
	if gate := chainMAE(chain, d); math.Float64bits(gate) != math.Float64bits(served) {
		t.Fatalf("gate MAE %v != served MAE %v over %d records", gate, served, d.Len())
	}
}
