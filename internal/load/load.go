// Package load drives synthetic UE fleets against a running lumosmapd
// or lumosfleet instance — the paper's Fig 4 deployment under load. A
// fleet of simulated UEs walks a generated city (internal/cityscape)
// in real time; each UE issues map/model queries from its current
// position (GET /predict, POST /predict/batch) and replays recorded
// campaign seconds upstream (POST /ingest), the same three routes a
// production deployment serves.
//
// Two pacing modes:
//
//   - Open loop (TargetQPS > 0): a pacer dispatches request tokens at
//     the target rate regardless of response latency, the honest way
//     to find the latency cliff. The run warms up at a fraction of the
//     target, ramps linearly to it, then holds a measured steady
//     window.
//   - Closed loop (TargetQPS <= 0): every UE issues its next request
//     as soon as the previous one completes — a concurrency-bound
//     saturation probe.
//
// Only the steady window is measured. Results feed a Report written in
// the repo's lumosbench JSON conventions (see cmd/lumosbench).
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"lumos5g/internal/cityscape"
	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/geo"
	"lumos5g/internal/ingest"
	"lumos5g/internal/rng"
	"lumos5g/internal/wire"
)

// Route names match the serving paths they exercise.
const (
	RoutePredict = "/predict"
	RouteBatch   = "/predict/batch"
	RouteIngest  = "/ingest"
)

// SLO is a per-route latency target in milliseconds; zero fields are
// not checked. A route also fails its SLO when more than MaxErrFrac of
// its measured requests error or are shed (429/503): a refused request
// meets no latency limit.
type SLO struct {
	P50Ms float64 `json:"p50_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	// MaxErrFrac is the tolerated error fraction (default 0.01).
	MaxErrFrac float64 `json:"max_err_frac,omitempty"`
}

// Config tunes one load run.
type Config struct {
	// BaseURL is the server under test (e.g. http://127.0.0.1:8460).
	BaseURL string

	// UEs is the number of concurrent simulated UEs (default 100).
	UEs int

	// TargetQPS is the open-loop request rate across the whole fleet;
	// <= 0 switches to closed-loop pacing.
	TargetQPS float64

	// Duration is the measured steady window (default 10s). Warmup and
	// Ramp precede it (defaults Duration/5 each; closed-loop runs skip
	// the rate ramp but keep the warmup as cache/connection warm time).
	Duration time.Duration
	Warmup   time.Duration
	Ramp     time.Duration

	// MixPredict/MixBatch/MixIngest weight the three routes (defaults
	// 70/20/10). Ingest weight is forced to 0 when no replay records
	// are provided.
	MixPredict float64
	MixBatch   float64
	MixIngest  float64

	// BatchSize is queries per /predict/batch request (default 32,
	// capped at the server's wire.MaxBatchRows bound). IngestBatch is
	// samples per POST /ingest (default 64, capped at
	// ingest.MaxBatchSamples).
	BatchSize   int
	IngestBatch int

	// Seed drives UE start positions, speeds, and route choices.
	Seed uint64

	// SLOs maps route → latency target. Empty means report-only.
	SLOs map[string]SLO

	// Client overrides the HTTP client (default: shared transport
	// sized for the UE count).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.UEs <= 0 {
		c.UEs = 100
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Duration / 5
	}
	if c.Ramp <= 0 {
		c.Ramp = c.Duration / 5
	}
	if c.MixPredict <= 0 && c.MixBatch <= 0 && c.MixIngest <= 0 {
		c.MixPredict, c.MixBatch, c.MixIngest = 0.70, 0.20, 0.10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.BatchSize > wire.MaxBatchRows {
		c.BatchSize = wire.MaxBatchRows
	}
	if c.IngestBatch <= 0 {
		c.IngestBatch = 64
	}
	if c.IngestBatch > ingest.MaxBatchSamples {
		c.IngestBatch = ingest.MaxBatchSamples
	}
	if c.Client == nil {
		perHost := c.UEs
		if perHost > 512 {
			perHost = 512
		}
		c.Client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        perHost,
				MaxIdleConnsPerHost: perHost,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return c
}

// ue is one simulated device: a walker on a city trajectory with its
// own rng stream and private latency collectors (merged after the
// run, so the hot path takes no locks).
type ue struct {
	tr       env.Trajectory
	frame    geo.Frame
	arc0     float64 // start offset along the trajectory, meters
	speedKmh float64
	src      *rng.Source

	lat    map[string][]float64 // measured-window latencies, ms
	errs   map[string]int
	shed   map[string]int // 429/503 backpressure responses
	total  map[string]int
	target string
}

// Run drives cfg.UEs simulated UEs from city against cfg.BaseURL.
// replay supplies recorded campaign seconds for POST /ingest (nil
// disables the ingest route). Run blocks for warmup+ramp+duration.
func Run(ctx context.Context, cfg Config, city *cityscape.City, replay *dataset.Dataset) (*Report, error) {
	cfg = cfg.withDefaults()
	if city == nil || len(city.Area.Trajectories) == 0 {
		return nil, errors.New("load: city with trajectories required")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil || cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: bad base URL %q", cfg.BaseURL)
	}
	ingestBodies := marshalIngestBodies(replay, cfg.IngestBatch)
	mixI := cfg.MixIngest
	if len(ingestBodies) == 0 {
		mixI = 0
	}
	wTotal := cfg.MixPredict + cfg.MixBatch + mixI
	if wTotal <= 0 {
		return nil, errors.New("load: route mix sums to zero")
	}

	root := rng.New(cfg.Seed).SplitLabeled("lumosload")
	ues := make([]*ue, cfg.UEs)
	trajs := city.Area.Trajectories
	for i := range ues {
		src := root.Split()
		tr := trajs[i%len(trajs)]
		ues[i] = &ue{
			tr:       tr,
			frame:    city.Area.Frame,
			arc0:     src.Float64() * tr.Length(),
			speedKmh: src.Range(3.0, 6.5), // paper's walking speeds
			src:      src,
			lat:      map[string][]float64{},
			errs:     map[string]int{},
			shed:     map[string]int{},
			total:    map[string]int{},
			target:   cfg.BaseURL,
		}
	}

	warmup := cfg.Warmup
	ramp := cfg.Ramp
	open := cfg.TargetQPS > 0
	if !open {
		ramp = 0
	}
	start := time.Now()
	steadyStart := start.Add(warmup + ramp)
	steadyEnd := steadyStart.Add(cfg.Duration)

	runCtx, cancel := context.WithDeadline(ctx, steadyEnd)
	defer cancel()

	// Open loop: one pacer feeds tokens; UEs block on the channel so
	// the fleet as a whole holds the target rate. Closed loop: the
	// channel is nil and every UE free-runs.
	var tokens chan struct{}
	if open {
		tokens = make(chan struct{}, cfg.UEs)
		go pace(runCtx, tokens, cfg.TargetQPS, warmup, ramp)
	}

	var wg sync.WaitGroup
	for _, u := range ues {
		wg.Add(1)
		go func(u *ue) {
			defer wg.Done()
			u.drive(runCtx, cfg, tokens, ingestBodies, start, steadyStart, steadyEnd, wTotal, mixI)
		}(u)
	}
	wg.Wait()

	rep := buildReport(cfg, city, ues, open, steadyEnd.Sub(steadyStart))
	return rep, nil
}

// pace dispatches tokens at warmupFrac*qps during warmup, ramps
// linearly to qps, then holds qps. Integral-of-rate dispatch: no drift
// from tick jitter.
func pace(ctx context.Context, tokens chan<- struct{}, qps float64, warmup, ramp time.Duration) {
	const warmupFrac = 0.2
	rate := func(el time.Duration) float64 {
		switch {
		case el < warmup:
			return qps * warmupFrac
		case el < warmup+ramp:
			f := float64(el-warmup) / float64(ramp)
			return qps * (warmupFrac + (1-warmupFrac)*f)
		default:
			return qps
		}
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	start := time.Now()
	var issued, owed float64
	prev := time.Duration(0)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		el := time.Since(start)
		// Trapezoidal integral of the rate curve over the last tick.
		owed += (rate(prev) + rate(el)) / 2 * (el - prev).Seconds()
		prev = el
		for issued < owed {
			select {
			case tokens <- struct{}{}:
				issued++
			case <-ctx.Done():
				return
			default:
				// Fleet saturated; drop the excess so a stalled server
				// doesn't bank an unbounded token debt.
				issued = owed
			}
		}
	}
}

// drive is one UE's request loop.
func (u *ue) drive(ctx context.Context, cfg Config, tokens <-chan struct{}, ingestBodies [][]byte, start, steadyStart, steadyEnd time.Time, wTotal, mixI float64) {
	for {
		if tokens != nil {
			select {
			case <-ctx.Done():
				return
			case <-tokens:
			}
		} else if ctx.Err() != nil {
			return
		}

		route := u.pickRoute(cfg, wTotal, mixI)
		var (
			req *http.Request
			err error
		)
		switch route {
		case RoutePredict:
			req, err = u.predictReq(ctx, time.Since(start))
		case RouteBatch:
			req, err = u.batchReq(ctx, cfg.BatchSize, time.Since(start))
		case RouteIngest:
			body := ingestBodies[u.src.Intn(len(ingestBodies))]
			req, err = http.NewRequestWithContext(ctx, http.MethodPost, u.target+RouteIngest, bytes.NewReader(body))
			if req != nil {
				req.Header.Set("Content-Type", "application/json")
			}
		}
		if err != nil {
			return
		}

		t0 := time.Now()
		resp, rerr := cfg.Client.Do(req)
		lat := time.Since(t0)
		status := 0
		if rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}

		now := time.Now()
		if now.After(steadyStart) && now.Before(steadyEnd) {
			u.total[route]++
			switch {
			case rerr != nil:
				if ctx.Err() != nil {
					// Deadline cut the request off mid-flight; not a
					// server failure.
					u.total[route]--
					return
				}
				u.errs[route]++
			case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
				// Deliberate shed under backpressure: counted apart from
				// hard failures, but against the route's SLO alike.
				u.shed[route]++
			case status >= 400:
				u.errs[route]++
			default:
				u.lat[route] = append(u.lat[route], float64(lat)/float64(time.Millisecond))
			}
		}
	}
}

func (u *ue) pickRoute(cfg Config, wTotal, mixI float64) string {
	x := u.src.Float64() * wTotal
	if x < cfg.MixPredict {
		return RoutePredict
	}
	if x < cfg.MixPredict+cfg.MixBatch {
		return RouteBatch
	}
	if mixI > 0 {
		return RouteIngest
	}
	return RoutePredict
}

// pos returns the UE's live position and heading after elapsed walk
// time — real kinematics over the generated city, so consecutive
// queries from one UE trace a coherent path like a real device.
func (u *ue) pos(elapsed time.Duration) (lat, lon, speed, bearing float64) {
	arc := u.arc0 + u.speedKmh/3.6*elapsed.Seconds()
	ll := u.frame.ToLatLon(u.tr.At(arc))
	return ll.Lat, ll.Lon, u.speedKmh, u.tr.HeadingAt(arc)
}

func (u *ue) predictReq(ctx context.Context, elapsed time.Duration) (*http.Request, error) {
	lat, lon, speed, bearing := u.pos(elapsed)
	q := url.Values{}
	q.Set("lat", fmt.Sprintf("%.7f", lat))
	q.Set("lon", fmt.Sprintf("%.7f", lon))
	q.Set("speed", fmt.Sprintf("%.2f", speed))
	q.Set("bearing", fmt.Sprintf("%.1f", bearing))
	return http.NewRequestWithContext(ctx, http.MethodGet, u.target+RoutePredict+"?"+q.Encode(), nil)
}

// batchReq queries a window of upcoming positions along the UE's own
// trajectory — the "map for my surroundings" prefetch from Fig 4.
func (u *ue) batchReq(ctx context.Context, n int, elapsed time.Duration) (*http.Request, error) {
	base := u.arc0 + u.speedKmh/3.6*elapsed.Seconds()
	qs := make([]wire.Query, n)
	for i := range qs {
		arc := base + float64(i)*5 // 5 m lookahead grid
		ll := u.frame.ToLatLon(u.tr.At(arc))
		sp, br := u.speedKmh, u.tr.HeadingAt(arc)
		qs[i] = wire.Query{Lat: ll.Lat, Lon: ll.Lon, Speed: &sp, Bearing: &br}
	}
	body, err := json.Marshal(qs)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.target+RouteBatch, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// marshalIngestBodies chunks a recorded campaign into pre-marshaled
// POST /ingest bodies so the hot loop never re-encodes them.
func marshalIngestBodies(replay *dataset.Dataset, chunk int) [][]byte {
	if replay == nil || len(replay.Records) == 0 {
		return nil
	}
	var bodies [][]byte
	for i := 0; i < len(replay.Records); i += chunk {
		end := i + chunk
		if end > len(replay.Records) {
			end = len(replay.Records)
		}
		samples := make([]ingest.Sample, 0, end-i)
		for j := i; j < end; j++ {
			samples = append(samples, ingest.SampleFromRecord(&replay.Records[j]))
		}
		b, err := json.Marshal(samples)
		if err != nil {
			continue
		}
		bodies = append(bodies, b)
	}
	return bodies
}
