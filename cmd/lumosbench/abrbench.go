package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"lumos5g"
	"lumos5g/internal/abr"
	"lumos5g/internal/cityscape"
	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/fleet"
	"lumos5g/internal/load"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/sim"
	"lumos5g/internal/wire"
)

// The -abrbench mode runs the paper's motivating use case (§2.2, §8.2)
// end to end: a calibrated fleet serves p10/p50/p90 bands over a
// generated city, UE trajectories from five scenario axes become
// streaming sessions, and per-trace forecasts are sourced from live
// /predict/batch?intervals=1 lookahead over the trace's future
// positions — not from the ground truth. Five controllers stream every
// trace: reactive rate-based and buffer-based baselines, the predictive
// controller on the p50 forecast, the interval-aware variant (the same
// policy picking rungs against the conservative p10 band edge), and the
// oracle fed the true future throughput. It writes BENCH_abr.json.

const (
	abrHorizonSec   = 8   // forecast lookahead per chunk decision
	abrMaxTraceSec  = 180 // cap per-session length
	abrMinTraceSec  = 48  // drop fragments too short to stream
	abrTracesPerScn = 6   // sessions per scenario axis
)

// abrControllerResult aggregates one controller over a scenario's traces.
type abrControllerResult struct {
	Name            string  `json:"name"`
	QoE             float64 `json:"qoe"`
	RebufferSec     float64 `json:"rebuffer_sec"`
	Switches        float64 `json:"switches"`
	MeanBitrateMbps float64 `json:"mean_bitrate_mbps"`
	// QoEvsOracle normalises against the oracle's mean QoE (1.0 = oracle).
	QoEvsOracle float64 `json:"qoe_vs_oracle"`
}

// abrScenarioResult is one scenario axis's outcome.
type abrScenarioResult struct {
	Name         string                `json:"name"`
	Traces       int                   `json:"traces"`
	TraceSeconds int                   `json:"trace_seconds"`
	Controllers  []abrControllerResult `json:"controllers"`
	// IntervalBeatsRateBased is the headline comparison: did picking
	// rungs against the p10 band edge out-QoE the reactive baseline?
	IntervalBeatsRateBased bool `json:"interval_beats_rate_based"`
}

// abrBenchReport is the BENCH_abr.json schema.
type abrBenchReport struct {
	GeneratedAt string    `json:"generated_at"`
	Seed        uint64    `json:"seed"`
	HorizonSec  int       `json:"horizon_sec"`
	Ladder      []float64 `json:"ladder_mbps"`

	Scenarios []abrScenarioResult `json:"scenarios"`
	// IntervalWins counts scenarios where the interval-aware controller
	// beats rate-based on QoE.
	IntervalWins int `json:"interval_wins"`
}

// abrTrace is one UE session: the true per-second throughput plus the
// positions the forecasts are fetched for.
type abrTrace struct {
	truth []float64
	recs  []dataset.Record
}

// collectTraces splits a campaign dataset into per-UE sessions, in
// first-appearance order, keeping up to abrTracesPerScn usable ones.
func collectTraces(d *lumos5g.Dataset) []abrTrace {
	type key struct {
		area, traj string
		pass       int
	}
	byUE := map[key][]dataset.Record{}
	var order []key
	for _, r := range d.Records {
		k := key{r.Area, r.Trajectory, r.Pass}
		if _, seen := byUE[k]; !seen {
			order = append(order, k)
		}
		byUE[k] = append(byUE[k], r)
	}
	// Longest-first so short stationary fragments don't crowd out the
	// mobile sessions the use case is about; ties break on appearance
	// order, keeping the pick deterministic.
	sort.SliceStable(order, func(i, j int) bool {
		return len(byUE[order[i]]) > len(byUE[order[j]])
	})
	var traces []abrTrace
	for _, k := range order {
		recs := byUE[k]
		if len(recs) < abrMinTraceSec {
			continue
		}
		if len(recs) > abrMaxTraceSec {
			recs = recs[:abrMaxTraceSec]
		}
		tr := abrTrace{recs: recs}
		for _, r := range recs {
			v := r.ThroughputMbps
			if v < 0 {
				v = 0
			}
			tr.truth = append(tr.truth, v)
		}
		traces = append(traces, tr)
		if len(traces) == abrTracesPerScn {
			break
		}
	}
	return traces
}

// fetchForecasts asks the live fleet for the whole trace's positions in
// one /predict/batch?intervals=1 call and returns the per-second p50
// and p10 series the controllers will window over.
func fetchForecasts(baseURL string, tr abrTrace) (p50, p10 []float64, err error) {
	rows := make([]wire.Query, len(tr.recs))
	for i := range tr.recs {
		r := &tr.recs[i]
		rows[i] = wire.Query{Lat: r.Latitude, Lon: r.Longitude, Speed: &r.SpeedKmh, Bearing: &r.CompassDeg}
	}
	body, err := json.Marshal(rows)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(baseURL+"/predict/batch?intervals=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("abrbench: batch status %d: %s", resp.StatusCode, data)
	}
	var br fleet.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		return nil, nil, err
	}
	if len(br.Rows) != len(rows) {
		return nil, nil, fmt.Errorf("abrbench: %d rows back for %d queries", len(br.Rows), len(rows))
	}
	p50 = make([]float64, len(br.Rows))
	p10 = make([]float64, len(br.Rows))
	for i, r := range br.Rows {
		// A row a shard could not serve (partial answer) forecasts as a
		// dead zone — the conservative reading of "no prediction".
		var mid, lo float64
		if r.P50 != nil {
			mid = *r.P50
		} else if r.Mbps != nil {
			mid = *r.Mbps
		}
		if r.P10 != nil {
			lo = *r.P10
		} else {
			lo = mid
		}
		p50[i] = clampNonNeg(mid)
		p10[i] = clampNonNeg(lo)
	}
	return p50, p10, nil
}

func clampNonNeg(v float64) float64 {
	if !(v > 0) { // catches negatives and NaN
		return 0
	}
	return v
}

// windowSource turns a per-second series into a Simulate forecast
// source: at time t it serves series[t : t+abrHorizonSec], holding the
// final value when the session outruns the series.
func windowSource(series []float64) func(int) []float64 {
	return func(t int) []float64 {
		if t < 0 {
			t = 0
		}
		if t >= len(series) {
			t = len(series) - 1
		}
		end := t + abrHorizonSec
		if end > len(series) {
			end = len(series)
		}
		return series[t:end]
	}
}

// reactiveSource is the in-situ estimator the conventional controllers
// run on (§2.2): the mean of the last three *observed* seconds — no
// map, no model, no future.
func reactiveSource(truth []float64) func(int) []float64 {
	return func(t int) []float64 {
		if t <= 0 {
			return []float64{truth[0]}
		}
		lo := t - 3
		if lo < 0 {
			lo = 0
		}
		var sum float64
		for _, v := range truth[lo:t] {
			sum += v
		}
		return []float64{sum / float64(t-lo)}
	}
}

// abrRun pairs a controller with its forecast source.
type abrRun struct {
	ctrl abr.Controller
	fc   func(tr abrTrace, p50, p10 []float64) func(int) []float64
}

func abrRuns() []abrRun {
	h := abrHorizonSec
	reactive := func(tr abrTrace, _, _ []float64) func(int) []float64 { return reactiveSource(tr.truth) }
	return []abrRun{
		{abr.RateBased{}, reactive},
		{abr.BufferBased{}, reactive},
		{abr.Predictive{HorizonSec: h}, func(_ abrTrace, p50, _ []float64) func(int) []float64 { return windowSource(p50) }},
		// The interval-aware variant: identical policy, conservative band
		// edge as the forecast.
		{abr.Named{Controller: abr.Predictive{HorizonSec: h}, Label: "predictive+p10"},
			func(_ abrTrace, _, p10 []float64) func(int) []float64 { return windowSource(p10) }},
		{abr.Oracle{HorizonSec: h}, func(tr abrTrace, _, _ []float64) func(int) []float64 { return windowSource(tr.truth) }},
	}
}

// runABRScenario streams every trace under every controller and
// aggregates per-controller means.
func runABRScenario(name string, raw *lumos5g.Dataset, baseURL string) (abrScenarioResult, error) {
	clean, _ := lumos5g.CleanDataset(raw)
	traces := collectTraces(clean)
	if len(traces) == 0 {
		return abrScenarioResult{}, fmt.Errorf("abrbench %s: no usable traces (clean=%d records)", name, clean.Len())
	}

	runs := abrRuns()
	res := abrScenarioResult{Name: name, Traces: len(traces)}
	sums := make([]abrControllerResult, len(runs))
	for i, r := range runs {
		sums[i].Name = r.ctrl.Name()
	}
	cfg := abr.Config{} // defaults: DefaultLadder, 30 s buffer, λ=3000, μ=1

	for _, tr := range traces {
		res.TraceSeconds += len(tr.truth)
		p50, p10, err := fetchForecasts(baseURL, tr)
		if err != nil {
			return abrScenarioResult{}, err
		}
		for i, r := range runs {
			m, err := abr.Simulate(cfg, r.ctrl, tr.truth, r.fc(tr, p50, p10))
			if err != nil {
				return abrScenarioResult{}, fmt.Errorf("abrbench %s/%s: %w", name, r.ctrl.Name(), err)
			}
			sums[i].QoE += m.QoE
			sums[i].RebufferSec += m.RebufferSec
			sums[i].Switches += float64(m.Switches)
			sums[i].MeanBitrateMbps += m.MeanBitrateMbps
		}
	}

	n := float64(len(traces))
	var rateQoE, intervalQoE, oracleQoE float64
	for i := range sums {
		sums[i].QoE /= n
		sums[i].RebufferSec /= n
		sums[i].Switches /= n
		sums[i].MeanBitrateMbps /= n
		switch sums[i].Name {
		case "rate-based":
			rateQoE = sums[i].QoE
		case "predictive+p10":
			intervalQoE = sums[i].QoE
		case "oracle":
			oracleQoE = sums[i].QoE
		}
	}
	for i := range sums {
		if oracleQoE != 0 {
			sums[i].QoEvsOracle = sums[i].QoE / oracleQoE
		}
	}
	res.Controllers = sums
	res.IntervalBeatsRateBased = intervalQoE > rateQoE
	return res, nil
}

// runABRBench generates a city, starts a calibrated local fleet, runs
// the five scenario campaigns through the live forecast path, and
// writes the JSON report to path.
func runABRBench(path string, seed uint64) error {
	city := cityscape.Generate(cityscape.Config{Seed: seed, BlocksX: 3, BlocksY: 2, Routes: 4, RouteBlocks: 3})
	// The forecast quality is the experiment here, so the fleet gets a
	// denser drive-test campaign and a bigger model than the load
	// harness's latency-focused defaults.
	lf, err := load.StartLocalFleet(city, load.LocalConfig{
		Seed: seed, NoIngest: true, CampaignUEs: 96,
		GBDT: gbdt.Config{Estimators: 120, MaxDepth: 6},
	})
	if err != nil {
		return err
	}
	defer lf.Close()

	outage, err := city.Outage(city.Towers[0].ID, 12, seed+5)
	if err != nil {
		return err
	}
	type scenario struct {
		name  string
		sim   sim.Config
		areas []*env.Area
	}
	mixed := city.Mixed(12, seed+1)
	crowd := city.Crowd(12, seed+2)
	transit := city.Transit(12, seed+3)
	ramp := city.Mixed(6, seed+4)
	scenarios := []scenario{
		{"mixed", mixed.Sim, []*env.Area{mixed.Area}},
		{"crowd", crowd.Sim, []*env.Area{crowd.Area}},
		{"transit", transit.Sim, []*env.Area{transit.Area}},
		// The weather ramp reruns a small mixed fleet at each attenuation
		// step, pooling all steps' traces into one scenario.
		{"weather_ramp", ramp.Sim, city.WeatherRamp(3, 12)},
		{outage.Name, outage.Sim, []*env.Area{outage.Area}},
	}

	rep := abrBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        seed,
		HorizonSec:  abrHorizonSec,
		Ladder:      abr.DefaultLadder,
	}
	for _, sc := range scenarios {
		raw := sim.RunCampaignParallel(sc.sim, sc.areas, 0)
		res, err := runABRScenario(sc.name, raw, lf.URL)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if res.IntervalBeatsRateBased {
			rep.IntervalWins++
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	for _, s := range rep.Scenarios {
		fmt.Printf("%s (%d traces, %d s):\n", s.Name, s.Traces, s.TraceSeconds)
		for _, c := range s.Controllers {
			fmt.Printf("  %-16s QoE %9.0f  rebuffer %6.1f s  switches %4.1f  bitrate %5.0f Mbps  vs-oracle %5.2f\n",
				c.Name, c.QoE, c.RebufferSec, c.Switches, c.MeanBitrateMbps, c.QoEvsOracle)
		}
	}
	fmt.Printf("interval-aware beats rate-based in %d/%d scenarios\n", rep.IntervalWins, len(rep.Scenarios))
	fmt.Printf("wrote %s\n", path)
	return nil
}
