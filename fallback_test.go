package lumos5g

import (
	"math"
	"sync"
	"testing"
)

// trainTestChain trains the default L+M+C → L+M → L chain on a tiny
// cleaned Airport campaign.
func trainTestChain(t *testing.T) (*FallbackChain, *Dataset) {
	t.Helper()
	a, err := AreaByName("Airport")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	c, err := TrainFallbackChain(d, DefaultFallbackGroups, ModelGDBT, testScale())
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

// fullQuery returns a query satisfying every L+M+C feature column.
func fullQuery(d *Dataset) map[string]float64 {
	r := d.Records[d.Len()/2]
	rad := math.Pi / 180
	return map[string]float64{
		"pixel_x": float64(r.PixelX), "pixel_y": float64(r.PixelY),
		"moving_speed": 4,
		"compass_sin":  math.Sin(30 * rad), "compass_cos": math.Cos(30 * rad),
		"past_tput_last": 600, "past_tput_hmean": 550,
		"radio_type": 1,
		"lte_rsrp":   -90, "lte_rsrq": -10, "lte_rssi": -60,
		"ss_rsrp": -85, "ss_rsrq": -11, "ss_sinr": 12,
		"horizontal_ho": 0, "vertical_ho": 0,
	}
}

func TestFallbackChainTierAttribution(t *testing.T) {
	c, d := trainTestChain(t)
	if len(c.Tiers()) != 3 {
		t.Fatalf("want 3 tiers, got %v", c.TierNames())
	}

	q := fullQuery(d)
	p := c.PredictInterval(q)
	if p.Tier != 0 || p.Degraded || p.Source != "L+M+C" {
		t.Fatalf("full query served by tier %d (%s, degraded=%v)", p.Tier, p.Source, p.Degraded)
	}
	if p.Mbps < 0 || math.IsNaN(p.Mbps) {
		t.Fatalf("bad prediction %v", p.Mbps)
	}

	// Losing a modem field demotes to L+M and reports why.
	delete(q, "ss_rsrp")
	p = c.PredictInterval(q)
	if p.Tier != 1 || !p.Degraded || p.Source != "L+M" {
		t.Fatalf("no-modem query served by tier %d (%s)", p.Tier, p.Source)
	}
	found := false
	for _, m := range p.Missing {
		if m == "ss_rsrp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Missing should name ss_rsrp, got %v", p.Missing)
	}

	// An out-of-range speed is as bad as a missing one: demote to L.
	q["moving_speed"] = 9999
	p = c.PredictInterval(q)
	if p.Tier != 2 || p.Source != "L" {
		t.Fatalf("no-kinematics query served by tier %d (%s)", p.Tier, p.Source)
	}

	// Without location the last resort serves from throughput history.
	q["pixel_x"] = math.NaN()
	p = c.PredictInterval(q)
	if p.Tier != 3 || p.Source != LastResortGroup {
		t.Fatalf("history query served by tier %d (%s)", p.Tier, p.Source)
	}
	if p.Mbps != 550 {
		t.Fatalf("last resort should use past_tput_hmean=550, got %v", p.Mbps)
	}

	// And with no history at all, from the training prior.
	p = c.PredictInterval(nil)
	if p.Tier != 3 || p.Mbps != c.Prior() {
		t.Fatalf("nil query: tier %d mbps %v prior %v", p.Tier, p.Mbps, c.Prior())
	}
	if !(c.Prior() > 0) {
		t.Fatalf("prior %v", c.Prior())
	}

	counts := c.ServedCounts()
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total != 5 || counts[0] != 1 || counts[3] != 2 {
		t.Fatalf("served counts %v", counts)
	}
}

func TestFallbackChainNeverErrors(t *testing.T) {
	c, d := trainTestChain(t)
	queries := []map[string]float64{
		nil,
		{},
		{"bogus": 1, "pixel_x": math.Inf(1)},
		{"pixel_x": -5, "pixel_y": 1e30},
		{"past_tput_last": math.NaN(), "past_tput_hmean": -1},
		fullQuery(d),
	}
	for i, q := range queries {
		p := c.PredictInterval(q)
		if math.IsNaN(p.Mbps) || math.IsInf(p.Mbps, 0) || p.Mbps < 0 {
			t.Fatalf("query %d: bad Mbps %v", i, p.Mbps)
		}
		if p.Tier < 0 || p.Tier > len(c.Tiers()) {
			t.Fatalf("query %d: bad tier %d", i, p.Tier)
		}
	}
}

func TestFallbackChainConcurrentPredict(t *testing.T) {
	c, d := trainTestChain(t)
	full := fullQuery(d)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := full
				if (g+i)%2 == 0 {
					q = nil
				}
				if p := c.PredictInterval(q); math.IsNaN(p.Mbps) {
					t.Error("NaN prediction")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	counts := c.ServedCounts()
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total != 8*200 {
		t.Fatalf("served %d, want %d", total, 8*200)
	}
}

func TestTrainFallbackChainSkipsUnusableGroups(t *testing.T) {
	// Loop has no surveyed panels, so tower groups yield no rows and
	// must be skipped, not fail the chain.
	a, err := AreaByName("Loop")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	c, err := TrainFallbackChain(d, []FeatureGroup{GroupTMC, GroupTM, GroupL}, ModelGDBT, testScale())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Tiers()); got != 1 {
		t.Fatalf("want only the L tier, got %v", c.TierNames())
	}
	if p := c.PredictInterval(nil); p.Tier != 1 || p.Mbps != c.Prior() {
		t.Fatalf("last resort broken: %+v", p)
	}
}

func TestNewFallbackChainValidation(t *testing.T) {
	for _, prior := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewFallbackChain(prior); err == nil {
			t.Fatalf("prior %v should be rejected", prior)
		}
	}
	if _, err := NewFallbackChain(100, nil); err == nil {
		t.Fatal("nil tier should be rejected")
	}
	if _, err := ChainFromPredictor(nil, 100); err == nil {
		t.Fatal("nil predictor should be rejected")
	}
	c, err := NewFallbackChain(420)
	if err != nil {
		t.Fatal(err)
	}
	if p := c.PredictInterval(map[string]float64{"x": 1}); p.Mbps != 420 || p.Degraded {
		t.Fatalf("tierless chain: %+v", p)
	}
}

// Prior returns the last-resort throughput prior in Mbps.
func (c *FallbackChain) Prior() float64 { return c.prior }

// ServedCounts returns how many queries each tier has answered since the
// chain was built; the final element counts the last resort.
func (c *FallbackChain) ServedCounts() []uint64 {
	out := make([]uint64, len(c.served))
	for i := range c.served {
		out[i] = c.served[i].Load()
	}
	return out
}
