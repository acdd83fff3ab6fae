package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"lumos5g"
	"lumos5g/internal/cityscape"
	"lumos5g/internal/env"
	"lumos5g/internal/fleet"
	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/sim"
	"lumos5g/internal/stats"
)

// The served model is the one lumosmapd and lumosfleet train by
// default (-seed 1, -min 3, zero Scale apart from the seed) over the
// default generated city, so every workload measures what a default
// deployment serves. The workload seed drives only the traffic.
const (
	modelSeed     = 1
	trainUEs      = 24
	mapMinSamples = 3
	fleetShards   = 2
	fleetReplicas = 1
	// setupRepeats is how many times each run builds the whole serving
	// stack; setup_s is the median, the last stack serves the workload.
	setupRepeats = 3
)

// model is one trained serving stack's inputs.
type model struct {
	city  *cityscape.City
	data  *lumos5g.Dataset
	tm    *lumos5g.ThroughputMap
	chain *lumos5g.FallbackChain
}

// setupTimes splits one set-up into its layers, in seconds.
type setupTimes struct {
	campaign, mapBuild, train, start, total float64
}

// deployment names the serving stack a workload runs against.
type deployment int

const (
	deployFleet  deployment = iota // fleet.StartFleet behind a loopback router
	deployIngest                   // one mapserver with an ingestor (lumosmapd -ingest)
)

// server is one running serving stack on loopback.
type server struct {
	url   string
	fleet *fleet.Fleet      // deployFleet
	ms    *mapserver.Server // deployIngest
	ing   *ingest.Ingestor  // deployIngest
	srv   *http.Server
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	if s.fleet != nil {
		s.fleet.Shutdown(ctx)
	}
}

// trainModel generates the city and the training campaign, cleans it,
// builds the throughput map and trains the calibrated fallback chain.
func trainModel(st *setupTimes) (*model, error) {
	t0 := time.Now()
	city := cityscape.Generate(cityscape.Config{Seed: modelSeed})
	sc := city.Mixed(trainUEs, modelSeed)
	raw := sim.RunCampaignParallel(sc.Sim, []*env.Area{sc.Area}, 0)
	d, _ := lumos5g.CleanDataset(raw)
	if d.Len() == 0 {
		return nil, fmt.Errorf("training campaign produced no clean rows")
	}
	t1 := time.Now()
	tm := lumos5g.BuildThroughputMap(d, mapMinSamples)
	t2 := time.Now()
	chain, err := lumos5g.TrainCalibratedFallbackChain(d, lumos5g.DefaultFallbackGroups,
		lumos5g.ModelGDBT, lumos5g.Scale{Seed: modelSeed})
	if err != nil {
		return nil, fmt.Errorf("train chain: %w", err)
	}
	t3 := time.Now()
	st.campaign = t1.Sub(t0).Seconds()
	st.mapBuild = t2.Sub(t1).Seconds()
	st.train = t3.Sub(t2).Seconds()
	return &model{city: city, data: d, tm: tm, chain: chain}, nil
}

// startServer brings up the deployment over m and serves it on a
// loopback listener. The refit timer is never started: the benchmark
// calls Ingestor.RefitNow at fixed points instead.
func startServer(m *model, dep deployment) (*server, error) {
	s := &server{}
	var h http.Handler
	switch dep {
	case deployFleet:
		fl, err := fleet.StartFleet(m.tm, m.chain, fleet.FleetConfig{
			Shards: fleetShards, Replicas: fleetReplicas, Seed: modelSeed,
		})
		if err != nil {
			return nil, err
		}
		s.fleet, h = fl, fl.Router()
	case deployIngest:
		ms, err := mapserver.NewWithChain(m.tm, m.chain)
		if err != nil {
			return nil, err
		}
		// lumosmapd -ingest defaults.
		s.ing = ingest.New(ms.Metrics(), ingest.Config{
			QueueSize: ingestQueue,
			Refit:     ingest.RefitConfig{GateFrac: 0.10, MinSamples: 200, Seed: modelSeed},
		})
		ms.AttachIngestor(s.ing)
		s.ms, h = ms, ms
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if s.fleet != nil {
			s.fleet.Shutdown(context.Background())
		}
		return nil, err
	}
	s.srv = &http.Server{Handler: h}
	go func() { _ = s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	return s, nil
}

// waitHealthy polls /healthz until it reports ok.
func waitHealthy(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			var h struct {
				OK bool `json:"ok"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.OK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy after 10s (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setup builds the whole stack once: train, start, first healthy
// /healthz.
func setup(c *http.Client, dep deployment) (*model, *server, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	m, err := trainModel(&st)
	if err != nil {
		return nil, nil, st, err
	}
	t1 := time.Now()
	s, err := startServer(m, dep)
	if err != nil {
		return nil, nil, st, err
	}
	if err := waitHealthy(c, s.url); err != nil {
		s.close()
		return nil, nil, st, err
	}
	t2 := time.Now()
	st.start = t2.Sub(t1).Seconds()
	st.total = t2.Sub(t0).Seconds()
	return m, s, st, nil
}

// setupMedian runs setup setupRepeats times, keeps the last stack
// serving, and returns the median of every set-up layer.
func setupMedian(c *http.Client, dep deployment) (*model, *server, setupTimes, error) {
	var all []setupTimes
	var m *model
	var s *server
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		// Start every set-up from a collected heap, so the previous
		// stack's garbage sets neither this set-up's time nor the
		// process's peak resident set.
		runtime.GC()
		var st setupTimes
		var err error
		m, s, st, err = setup(c, dep)
		if err != nil {
			return nil, nil, setupTimes{}, fmt.Errorf("setup %d: %w", i, err)
		}
		all = append(all, st)
	}
	med := func(f func(setupTimes) float64) float64 {
		v := make([]float64, len(all))
		for i, st := range all {
			v[i] = f(st)
		}
		return stats.Quantile(v, 0.5)
	}
	return m, s, setupTimes{
		campaign: med(func(s setupTimes) float64 { return s.campaign }),
		mapBuild: med(func(s setupTimes) float64 { return s.mapBuild }),
		train:    med(func(s setupTimes) float64 { return s.train }),
		start:    med(func(s setupTimes) float64 { return s.start }),
		total:    med(func(s setupTimes) float64 { return s.total }),
	}, nil
}
