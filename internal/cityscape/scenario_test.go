package cityscape

import (
	"bytes"
	"fmt"
	"testing"

	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/radio"
	"lumos5g/internal/sim"
)

func csvBytes(t *testing.T, d *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Generated cities feed the PR 3 parity contract unchanged: the same
// seed yields byte-identical campaign output for every worker count.
func TestGeneratedCityCampaignWorkerParity(t *testing.T) {
	city := Generate(testCfg(21))
	cfg := sim.Config{Seed: 9, WalkPasses: 1, DrivePasses: 1, StationarySessions: 2, BackgroundUEProb: 0.12}
	want := csvBytes(t, sim.RunCampaignParallel(cfg, []*env.Area{city.Area}, 1))
	for _, w := range []int{2, 8} {
		got := csvBytes(t, sim.RunCampaignParallel(cfg, []*env.Area{city.Area}, w))
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced different campaign bytes than serial", w)
		}
	}
	// And the serial scenario path agrees with the parallel one.
	s := Scenario{Name: "parity", Area: city.Area, Sim: cfg}
	if got := csvBytes(t, s.Run()); !bytes.Equal(got, want) {
		t.Fatal("Scenario.Run differs from RunCampaignParallel on the same area")
	}
}

func TestScenarioAxes(t *testing.T) {
	city := Generate(testCfg(33))

	mixed := city.Mixed(40, 5)
	if ues := mixed.UEs(); ues < 10 {
		t.Fatalf("mixed fleet sized %d UEs for a 40-UE ask", ues)
	}
	if d := mixed.Run(); len(d.Records) == 0 {
		t.Fatal("mixed scenario produced no records")
	}

	crowd := city.Crowd(12, 5)
	if got := crowd.UEs(); got != 12 {
		t.Fatalf("crowd UEs = %d, want 12", got)
	}
	d := crowd.Run()
	if len(d.Records) == 0 {
		t.Fatal("crowd scenario produced no records")
	}
	// Stationary crowds never move: every record sits on a hotspot.
	for _, r := range d.Records {
		if r.Mode != radio.Stationary {
			t.Fatalf("crowd record mobility %v", r.Mode)
		}
	}

	transit := city.Transit(10, 5)
	d = transit.Run()
	if len(d.Records) == 0 {
		t.Fatal("transit scenario produced no records")
	}
	for _, r := range d.Records {
		if r.Mode != radio.Driving {
			t.Fatalf("transit record mobility %v", r.Mode)
		}
	}

	storm := city.Storm(20, 15, 5)
	if storm.Area == city.Area {
		t.Fatal("storm must run on a weather variant, not the base area")
	}
	if len(storm.Run().Records) == 0 {
		t.Fatal("storm scenario produced no records")
	}

	out, err := city.Outage(city.Towers[0].ID, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	od := out.Run()
	if len(od.Records) == 0 {
		t.Fatal("outage scenario produced no records")
	}
	// The dead tower's blocks demote passing UEs to the LTE anchor, so
	// the outage run spends strictly more seconds off 5G than the same
	// fleet on the healthy city. (It records fewer NR<->LTE handoffs than
	// the healthy city, not more, so handoffs are not what this pins.)
	base := city.Mixed(20, 5).Run()
	if got, want := lteSeconds(od), lteSeconds(base); got <= want {
		t.Fatalf("outage LTE seconds %d not above baseline %d", got, want)
	}
}

func lteSeconds(d *dataset.Dataset) int {
	n := 0
	for _, r := range d.Records {
		if r.Radio == radio.RadioLTE {
			n++
		}
	}
	return n
}

// Scenario determinism: the same city + seed yields the same records.
func TestScenarioDeterministic(t *testing.T) {
	a := Generate(testCfg(55)).Mixed(20, 3)
	b := Generate(testCfg(55)).Mixed(20, 3)
	if !bytes.Equal(csvBytes(t, a.Run()), csvBytes(t, b.Run())) {
		t.Fatal("same city and seed produced different scenario records")
	}
}

// Run executes the scenario serially. Use sim.RunCampaignParallel with
// s.Area for the parallel, byte-identical form.
func (s Scenario) Run() *dataset.Dataset { return sim.RunArea(s.Area, s.Sim) }

// Storm is Mixed under weather: every tree line's loss is raised by
// extraDB (rain-soaked foliage attenuates mmWave hard).
func (c *City) Storm(ues int, extraDB float64, seed uint64) Scenario {
	s := c.Mixed(ues, seed)
	s.Name = fmt.Sprintf("storm+%.0fdB", extraDB)
	s.Area = c.WithWeather(extraDB)
	return s
}
