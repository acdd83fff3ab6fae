package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"lumos5g"
	"lumos5g/internal/fleet"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/stats"
)

// The -fleetbench mode measures the sharded fleet's routing overhead
// and degradation cost end to end: the same query mix against a
// 1-shard fleet, an N-shard fleet, and an N-shard fleet with one
// replica hard-killed a quarter of the way into the run (the
// supervisor restarts it with backoff, so the tail captures failover,
// hedging, and recovery). Requests go through the real Router over
// real loopback TCP to the replicas. Percentiles are stats.Quantile
// (linear interpolation between order statistics), the convention
// internal/load and e2ebench report with. It writes BENCH_fleet.json.

// fleetScenarioResult is one load run's outcome.
type fleetScenarioResult struct {
	Name      string  `json:"name"`
	Shards    int     `json:"shards"`
	Replicas  int     `json:"replicas"`
	DurationS float64 `json:"duration_s"`
	Requests  int     `json:"requests"`
	Failures  int     `json:"failures"` // non-200 single-query responses
	QPS       float64 `json:"qps"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	Note      string  `json:"note,omitempty"`
}

// fleetBenchReport is the BENCH_fleet.json schema.
type fleetBenchReport struct {
	GeneratedAt string `json:"generated_at"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"go_max_procs"`
	Seed        uint64 `json:"seed"`
	Workers     int    `json:"workers"`
	MapCells    int    `json:"map_cells"`

	Scenarios []fleetScenarioResult `json:"scenarios"`
	// KilledP99OverHealthy is the one-replica-killed p99 divided by the
	// healthy N-shard p99 — the latency price of riding out a failure.
	KilledP99OverHealthy float64 `json:"killed_p99_over_healthy"`
}

// fleetLoad hammers the handler with workers goroutines for duration,
// cycling through urls, and returns per-request latencies plus the
// count of non-200 responses. mid, if non-nil, runs once in a side
// goroutine a quarter of the way in (the chaos injection hook).
func fleetLoad(h http.Handler, urls []string, workers int, duration time.Duration, mid func()) (latencies []float64, failures int) {
	deadline := time.Now().Add(duration)
	if mid != nil {
		go func() {
			time.Sleep(duration / 4)
			mid()
		}()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []float64
			fails := 0
			for i := w; time.Now().Before(deadline); i++ {
				start := time.Now()
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", urls[i%len(urls)], nil))
				lats = append(lats, float64(time.Since(start).Nanoseconds())/1e6)
				if rr.Code != http.StatusOK {
					fails++
				}
			}
			mu.Lock()
			latencies = append(latencies, lats...)
			failures += fails
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return latencies, failures
}

// runFleetBench trains one serving model, runs the three fleet load
// scenarios, and writes the JSON report to path.
func runFleetBench(path string, seed uint64) error {
	rep := fleetBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
	}

	area, err := lumos5g.AreaByName("Airport")
	if err != nil {
		return err
	}
	cfg := lumos5g.CampaignConfig{Seed: seed, WalkPasses: 6, BackgroundUEProb: 0.1}
	clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
	tm := lumos5g.BuildThroughputMap(clean, 3)
	chain, err := lumos5g.TrainFallbackChain(clean, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, lumos5g.Scale{Seed: seed})
	if err != nil {
		return err
	}
	rep.MapCells = len(tm.Cells)

	// Query mix: points spread across the campaign walk, so the load
	// touches every shard's key range. Distinct bearings defeat the
	// replica-side prediction cache enough to keep the model hot.
	var urls []string
	step := len(clean.Records) / 128
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(clean.Records); i += step {
		r := clean.Records[i]
		urls = append(urls, fmt.Sprintf("/predict?lat=%f&lon=%f&speed=4&bearing=%d", r.Latitude, r.Longitude, i%360))
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	rep.Workers = workers
	const loadDuration = 2 * time.Second
	const nShards = 3

	router := fleet.RouterConfig{
		HedgeDelay:    25 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
	}
	serverOpts := []mapserver.Option{mapserver.WithMetricsRoute(false)}

	run := func(name string, shards, replicas int, note string, mid func(*fleet.Fleet)) error {
		fl, err := fleet.StartFleet(tm, chain, fleet.FleetConfig{
			Shards:     shards,
			Replicas:   replicas,
			ServerOpts: serverOpts,
			Router:     router,
			Seed:       seed + 1,
		})
		if err != nil {
			return fmt.Errorf("fleetbench %s: %w", name, err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			fl.Shutdown(ctx)
			cancel()
		}()
		// Warm up connections and caches so every scenario starts even.
		warm, _ := fleetLoad(fl.Router(), urls, workers, 200*time.Millisecond, nil)
		_ = warm
		var midFn func()
		if mid != nil {
			midFn = func() { mid(fl) }
		}
		lats, fails := fleetLoad(fl.Router(), urls, workers, loadDuration, midFn)
		rep.Scenarios = append(rep.Scenarios, fleetScenarioResult{
			Name: name, Shards: shards, Replicas: replicas,
			DurationS: loadDuration.Seconds(),
			Requests:  len(lats), Failures: fails,
			QPS:   float64(len(lats)) / loadDuration.Seconds(),
			P50Ms: stats.Quantile(lats, 0.5), P99Ms: stats.Quantile(lats, 0.99),
			Note: note,
		})
		return nil
	}

	if err := run("one_shard", 1, 2, "whole map on a single shard", nil); err != nil {
		return err
	}
	if err := run("n_shards_healthy", nShards, 2, "map partitioned by rendezvous hash", nil); err != nil {
		return err
	}
	if err := run("n_shards_replica_killed", nShards, 2,
		"replica s0r0 hard-killed at t/4; supervisor restarts it with backoff", func(fl *fleet.Fleet) {
			fl.KillReplica("s0r0")
		}); err != nil {
		return err
	}

	var healthyP99, killedP99 float64
	for _, s := range rep.Scenarios {
		switch s.Name {
		case "n_shards_healthy":
			healthyP99 = s.P99Ms
		case "n_shards_replica_killed":
			killedP99 = s.P99Ms
		}
	}
	if healthyP99 > 0 {
		rep.KilledP99OverHealthy = killedP99 / healthyP99
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	for _, s := range rep.Scenarios {
		fmt.Printf("%-24s %d shards x %d  %8.0f q/s  p50 %6.2f ms  p99 %6.2f ms  %d/%d failed\n",
			s.Name, s.Shards, s.Replicas, s.QPS, s.P50Ms, s.P99Ms, s.Failures, s.Requests)
	}
	fmt.Printf("killed/healthy p99: %.2fx\n", rep.KilledP99OverHealthy)
	fmt.Printf("wrote %s\n", path)
	return nil
}
