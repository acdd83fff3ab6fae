package cityscape

import (
	"fmt"

	"lumos5g/internal/env"
	"lumos5g/internal/geo"
	"lumos5g/internal/sim"
)

// Scenario binds an area variant to a sim configuration sized for a
// target UE fleet. Run it with sim.RunArea (or hand Area to
// sim.RunCampaignParallel for worker-count-independent output).
type Scenario struct {
	// Name labels the scenario axis ("mixed", "crowd", ...).
	Name string
	// Area is the (possibly variant) city area to simulate.
	Area *env.Area
	// Sim is the campaign configuration; one shard ≈ one UE trace.
	Sim sim.Config
}

// UEs is the exact number of UE traces (shards) the scenario runs.
func (s Scenario) UEs() int { return len(sim.AreaShards(s.Area, s.Sim)) }

// Mixed sizes a routine-day fleet over the full city: roughly 60%
// walkers, 25% drivers, 15% stationary sessions, spread over every
// route. ues is approximate (pass counts are per-trajectory integers);
// Scenario.UEs reports the exact count.
func (c *City) Mixed(ues int, seed uint64) Scenario {
	nt := len(c.Area.Trajectories)
	walk := roundPasses(0.60*float64(ues), nt)
	drive := roundPasses(0.25*float64(ues), nt)
	still := ues - nt*(walk+drive)
	if still < 0 {
		still = 0
	}
	return Scenario{
		Name: "mixed",
		Area: c.Area,
		Sim: sim.Config{
			Seed:               seed,
			WalkPasses:         walk,
			DrivePasses:        drive,
			StationarySessions: still,
			BackgroundUEProb:   0.12,
		},
	}
}

// Crowd parks ues stationary UEs on the city's hotspots — the
// stationary-crowd axis (a stadium letting out, a transit platform).
// Per-panel contention is cranked up: everyone shares the few panels
// covering the hotspots.
func (c *City) Crowd(ues int, seed uint64) Scenario {
	a := c.cloneArea()
	a.Trajectories = nil
	for i, h := range c.Hotspots {
		a.Trajectories = append(a.Trajectories, env.Trajectory{
			Name:      fmt.Sprintf("HOT%02d", i),
			Waypoints: []geo.Point{h},
		})
	}
	a.DrivingSupported = false
	return Scenario{
		Name: "crowd",
		Area: a,
		Sim: sim.Config{
			Seed:               seed,
			StationarySessions: ues,
			BackgroundUEProb:   0.45,
		},
	}
}

// Transit runs ues driving passes over the perimeter circuit with its
// station stops — the transit-mobility axis (a bus line through town).
func (c *City) Transit(ues int, seed uint64) Scenario {
	a := c.cloneArea()
	out := c.TransitLoop
	back := c.TransitLoop.Reversed("TRANSIT-R")
	a.Trajectories = []env.Trajectory{out, back}
	passes := ues / 2
	if passes < 1 {
		passes = 1
	}
	return Scenario{
		Name: "transit",
		Area: a,
		Sim: sim.Config{
			Seed:             seed,
			DrivePasses:      passes,
			BackgroundUEProb: 0.2,
		},
	}
}

// Outage is Mixed with one tower dark: its panels are removed, so
// passes through the blocks it covered demote to the LTE anchor and the
// fleet spends more seconds on LTE than on the healthy city. It does not
// add NR<->LTE churn: outage runs record fewer vertical handoffs than
// healthy ones, not more.
func (c *City) Outage(towerID int, ues int, seed uint64) (Scenario, error) {
	a, err := c.WithTowerOutage(towerID)
	if err != nil {
		return Scenario{}, err
	}
	s := c.Mixed(ues, seed)
	s.Name = fmt.Sprintf("outage-T%02d", towerID)
	s.Area = a
	return s, nil
}

// WithWeather returns an area variant with every foliage obstacle's
// loss raised by extraDB. The base city is untouched.
func (c *City) WithWeather(extraDB float64) *env.Area {
	a := c.cloneArea()
	for _, idx := range c.foliage {
		a.Radio.Obstacles[idx].LossDB += extraDB
	}
	return a
}

// WeatherRamp returns steps area variants with foliage attenuation
// climbing linearly from 0 to maxExtraDB — a storm rolling in. The
// first step is the dry city.
func (c *City) WeatherRamp(steps int, maxExtraDB float64) []*env.Area {
	if steps < 2 {
		return []*env.Area{c.cloneArea()}
	}
	areas := make([]*env.Area, steps)
	for i := range areas {
		areas[i] = c.WithWeather(maxExtraDB * float64(i) / float64(steps-1))
	}
	return areas
}

// WithTowerOutage returns an area variant with the tower's panels
// removed — the tower-outage fault axis: its blocks lose mmWave
// coverage and traffic there falls back to the LTE anchor.
func (c *City) WithTowerOutage(towerID int) (*env.Area, error) {
	var tw *Tower
	for i := range c.Towers {
		if c.Towers[i].ID == towerID {
			tw = &c.Towers[i]
			break
		}
	}
	if tw == nil {
		return nil, fmt.Errorf("cityscape: no tower %d in %s (have %d towers)", towerID, c.Config.Name, len(c.Towers))
	}
	dark := make(map[int]bool, len(tw.PanelIDs))
	for _, id := range tw.PanelIDs {
		dark[id] = true
	}
	a := c.cloneArea()
	kept := a.Radio.Panels[:0:0]
	for _, p := range a.Radio.Panels {
		if !dark[p.ID] {
			kept = append(kept, p)
		}
	}
	a.Radio.Panels = kept
	return a, nil
}

// cloneArea deep-copies the slices a scenario variant mutates.
func (c *City) cloneArea() *env.Area {
	src := c.Area
	a := *src
	a.Radio.Panels = append(a.Radio.Panels[:0:0], src.Radio.Panels...)
	a.Radio.Obstacles = append(a.Radio.Obstacles[:0:0], src.Radio.Obstacles...)
	a.Trajectories = append(a.Trajectories[:0:0], src.Trajectories...)
	a.StopPoints = append(a.StopPoints[:0:0], src.StopPoints...)
	return &a
}

// roundPasses converts a UE share into per-trajectory pass counts.
func roundPasses(share float64, trajectories int) int {
	if trajectories <= 0 {
		return 0
	}
	p := int(share/float64(trajectories) + 0.5)
	if p < 1 {
		p = 1
	}
	return p
}
