package lumos5g

import (
	"bytes"
	"math"
	"testing"

	"lumos5g/internal/core"
	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/rng"
)

// trainCalibratedTestChain trains the default chain with conformal
// calibration on a tiny cleaned Airport campaign.
func trainCalibratedTestChain(t *testing.T) (*FallbackChain, *Dataset) {
	t.Helper()
	a, err := AreaByName("Airport")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	c, err := TrainCalibratedFallbackChain(d, DefaultFallbackGroups, ModelGDBT, testScale())
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func checkOrdered(t *testing.T, p ChainPrediction) {
	t.Helper()
	for _, v := range []float64{p.P10, p.Mbps, p.P90} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite interval bound in %+v", p)
		}
	}
	if p.P10 < 0 || p.P10 > p.Mbps || p.Mbps > p.P90 {
		t.Fatalf("interval ordering violated: p10=%v p50=%v p90=%v (tier %d %s)",
			p.P10, p.Mbps, p.P90, p.Tier, p.Source)
	}
}

// TestPredictIntervalOrderingAcrossTiers fuzzes queries through every
// fallback tier — full sensors, no modem, no kinematics, no location at
// all — and asserts the served triple always satisfies
// 0 <= p10 <= p50 <= p90 and agrees with Predict on the point answer.
func TestPredictIntervalOrderingAcrossTiers(t *testing.T) {
	c, d := trainCalibratedTestChain(t)
	if len(c.Tiers()) != 3 {
		t.Fatalf("want 3 tiers, got %v", c.TierNames())
	}
	for _, p := range c.Tiers() {
		if !p.HasInterval() {
			t.Fatalf("tier %s trained without calibration", p.Group())
		}
	}
	if _, ok := c.LastResortOffsets(); !ok {
		t.Fatal("last resort trained without calibration")
	}

	src := rng.New(99)
	hitTiers := map[int]bool{}
	// Feature knockouts that target each tier, applied at random.
	knockouts := [][]string{
		nil,
		{"ss_rsrp"},                    // demote to L+M
		{"ss_rsrp", "moving_speed"},    // demote to L
		{"pixel_x"},                    // demote to last resort
		{"pixel_x", "past_tput_hmean"}, // last resort on past_tput_last
		{"pixel_x", "past_tput_hmean", "past_tput_last"}, // prior
	}
	for i := 0; i < 400; i++ {
		q := fullQuery(d)
		q["moving_speed"] = src.Range(0, 30)
		q["pixel_x"] = src.Range(0, 120)
		q["pixel_y"] = src.Range(0, 120)
		q["past_tput_hmean"] = src.Range(1, 1900)
		for _, k := range knockouts[i%len(knockouts)] {
			delete(q, k)
		}
		iv := c.PredictInterval(q)
		checkOrdered(t, iv)
		hitTiers[iv.Tier] = true
		if !iv.HasInterval {
			t.Fatalf("calibrated chain served no interval from tier %d", iv.Tier)
		}
	}
	for tier := 0; tier <= 3; tier++ {
		if !hitTiers[tier] {
			t.Fatalf("fuzzed queries never reached tier %d (hit: %v)", tier, hitTiers)
		}
	}
}

// TestPredictIntervalAgreesWithPredict pins the contract that the
// interval path is the serving tier's point Predict plus a band: same
// Mbps, class and attribution for the same query.
func TestPredictIntervalAgreesWithPredict(t *testing.T) {
	c, d := trainCalibratedTestChain(t)
	q := fullQuery(d)
	tier := c.Tiers()[0]
	names := tier.FeatureNames()
	x := make([]float64, len(names))
	for j, n := range names {
		x[j] = q[n]
	}
	mbps := math.Max(tier.Predict(x), 0)
	b := c.PredictInterval(q)
	if b.Mbps != mbps || b.Class != ClassOf(mbps) || b.Tier != 0 || b.Source != tier.Group().String() {
		t.Fatalf("tier Predict %v vs PredictInterval %+v", mbps, b)
	}
	if b.P10 == b.P90 {
		t.Fatal("calibrated tier served a zero-width band")
	}
}

// TestPredictIntervalBatchMatchesSequential: the batch variant must be
// byte-for-byte the sequential answers.
func TestPredictIntervalBatchMatchesSequential(t *testing.T) {
	c, d := trainCalibratedTestChain(t)
	src := rng.New(5)
	qs := make([]map[string]float64, 64)
	for i := range qs {
		q := fullQuery(d)
		q["pixel_x"] = src.Range(0, 120)
		if i%3 == 1 {
			delete(q, "ss_rsrp")
		}
		if i%5 == 2 {
			delete(q, "pixel_x")
		}
		qs[i] = q
	}
	// Fresh chain for sequential so served counters match too.
	got := c.PredictIntervalBatch(qs)
	c2, _ := trainCalibratedTestChain(t)
	for i, q := range qs {
		want := c2.PredictInterval(q)
		g := got[i]
		if g.Mbps != want.Mbps || g.P10 != want.P10 || g.P90 != want.P90 ||
			g.Tier != want.Tier || g.HasInterval != want.HasInterval {
			t.Fatalf("row %d: batch %+v != sequential %+v", i, g, want)
		}
		checkOrdered(t, g)
	}
}

// TestIntervalEmpiricalCoverage checks the conformal band's reason to
// exist: on the holdout side of the evaluation split (the same seeded
// 70/30 discipline the experiments lab uses), the p10–p90 band must
// cover roughly 80% of true throughputs — and still cover on a fresh
// campaign the calibration never saw.
func TestIntervalEmpiricalCoverage(t *testing.T) {
	a, err := AreaByName("Airport")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := CleanDataset(GenerateArea(a, CampaignConfig{Seed: 3, WalkPasses: 4, DrivePasses: 2, StationarySessions: 2}))
	sc := testScale()
	p, err := TrainCalibrated(d, GroupLM, ModelGDBT, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasInterval() {
		t.Fatal("TrainCalibrated produced no offsets")
	}

	coverage := func(X [][]float64, Y []float64) float64 {
		ivs := p.PredictIntervalBatch(X)
		covered := 0
		for i, iv := range ivs {
			if Y[i] >= iv.P10 && Y[i] <= iv.P90 {
				covered++
			}
		}
		return float64(covered) / float64(len(ivs))
	}

	// The exact calibration holdout: coverage is ~80% by construction
	// (conservative finite-sample ranks err slightly high).
	mat := features.Build(d, GroupLM)
	_, _, calX, calY := core.SplitMatrix(mat, sc.Seed)
	if f := coverage(calX, calY); f < 0.78 || f > 0.93 {
		t.Fatalf("calibration-split coverage %.3f outside [0.78, 0.93]", f)
	}

	// A fresh campaign from the same generator: exchangeable data the
	// calibration never touched.
	d2, _ := CleanDataset(GenerateArea(a, CampaignConfig{Seed: 77, WalkPasses: 3, DrivePasses: 1, StationarySessions: 1}))
	mat2 := features.Build(d2, GroupLM)
	if f := coverage(mat2.X, mat2.Y); f < 0.60 || f > 0.98 {
		t.Fatalf("fresh-campaign coverage %.3f outside [0.60, 0.98]", f)
	}
}

// TestIntervalArtifactRoundTrip: conformal offsets survive the
// checksummed artifact envelope for both predictors and chain bundles.
func TestIntervalArtifactRoundTrip(t *testing.T) {
	c, d := trainCalibratedTestChain(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadChain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range c2.Tiers() {
		want, _ := c.Tiers()[i].ConformalOffsets()
		got, ok := p.ConformalOffsets()
		if !ok || got != want {
			t.Fatalf("tier %d offsets: got %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	wantHM, _ := c.LastResortOffsets()
	gotHM, ok := c2.LastResortOffsets()
	if !ok || gotHM != wantHM {
		t.Fatalf("last-resort offsets: got %+v ok=%v, want %+v", gotHM, ok, wantHM)
	}
	q := fullQuery(d)
	a1 := c.PredictInterval(q)
	a2 := c2.PredictInterval(q)
	if a1.Mbps != a2.Mbps || a1.P10 != a2.P10 || a1.P90 != a2.P90 {
		t.Fatalf("round-tripped chain diverges: %+v vs %+v", a1, a2)
	}
}

// LastResortOffsets returns the last resort's conformal offsets and
// whether any exist.
func (c *FallbackChain) LastResortOffsets() (ml.ConformalOffsets, bool) {
	if c.hmOff == nil {
		return ml.ConformalOffsets{}, false
	}
	return *c.hmOff, true
}

// ConformalOffsets returns the calibration offsets and whether the
// predictor has been calibrated.
func (p *Predictor) ConformalOffsets() (ml.ConformalOffsets, bool) {
	if p.ival == nil {
		return ml.ConformalOffsets{}, false
	}
	return *p.ival, true
}

// HasInterval reports whether PredictInterval serves calibrated (rather
// than degenerate) bands.
func (p *Predictor) HasInterval() bool { return p.ival != nil }

// PredictIntervalBatch returns the p10/p50/p90 band for every row of X.
// Element i equals PredictInterval(X[i]) exactly.
func (p *Predictor) PredictIntervalBatch(X [][]float64) []ml.Interval {
	mids := ml.PredictAll(p.reg, X)
	out := make([]ml.Interval, len(mids))
	for i, mid := range mids {
		if p.ival == nil {
			out[i] = ml.Degenerate(mid)
		} else {
			out[i] = p.ival.Interval(mid)
		}
	}
	return out
}
