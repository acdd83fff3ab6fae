package load

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lumos5g/internal/cityscape"
)

func smallCity(seed uint64) *cityscape.City {
	return cityscape.Generate(cityscape.Config{Seed: seed, BlocksX: 3, BlocksY: 2, Routes: 4, RouteBlocks: 3})
}

// End to end: train + serve a real fleet on a generated city, then
// drive it with a closed-loop UE swarm and check the report.
func TestRunClosedLoopAgainstLocalFleet(t *testing.T) {
	city := smallCity(77)
	lf, err := StartLocalFleet(city, LocalConfig{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()

	cfg := Config{
		BaseURL:  lf.URL,
		UEs:      40,
		Duration: 1500 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
		Seed:     77,
		SLOs: map[string]SLO{
			RoutePredict: {P99Ms: 10000}, // generous: CI just checks plumbing
		},
	}
	rep, err := Run(context.Background(), cfg, city, lf.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" {
		t.Fatalf("mode %q, want closed", rep.Mode)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatalf("achieved QPS %v", rep.AchievedQPS)
	}
	var total, errs int
	seen := map[string]bool{}
	for _, rr := range rep.Routes {
		seen[rr.Route] = true
		total += rr.Requests
		errs += rr.Errors
	}
	if total == 0 {
		t.Fatal("no measured requests")
	}
	// A closed-loop swarm over a warm fleet must not see hard errors.
	if float64(errs) > 0.02*float64(total) {
		t.Fatalf("%d/%d requests errored", errs, total)
	}
	if !seen[RoutePredict] || !seen[RouteBatch] || !seen[RouteIngest] {
		t.Fatalf("not every route was exercised: %v", seen)
	}
	if rep.SLOVerdict != "pass" {
		t.Fatalf("verdict %q: %+v", rep.SLOVerdict, rep.Routes)
	}

	// The artifact round-trips as JSON, lumosbench-style.
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.City != city.Config.Name || back.UEs != cfg.UEs {
		t.Fatalf("artifact round-trip mismatch: %+v", back)
	}
}

// Open loop: the pacer holds the fleet at the target rate. The server
// is a trivial stub so the test measures pacing, not model inference
// throughput (the real fleet can't hold 80 qps under -race on a
// one-core CI box).
func TestRunOpenLoopHitsTarget(t *testing.T) {
	city := smallCity(78)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("{}"))
	})}
	go srv.Serve(ln)
	defer srv.Close()

	cfg := Config{
		BaseURL:   "http://" + ln.Addr().String(),
		UEs:       30,
		TargetQPS: 80,
		Duration:  1500 * time.Millisecond,
		Warmup:    300 * time.Millisecond,
		Ramp:      300 * time.Millisecond,
		Seed:      78,
	}
	rep, err := Run(context.Background(), cfg, city, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Fatalf("mode %q, want open", rep.Mode)
	}
	// Loose band for CI jitter; an unpaced 30-UE closed loop on a stub
	// server would run orders of magnitude above 80 qps.
	if rep.AchievedQPS < 0.5*cfg.TargetQPS || rep.AchievedQPS > 1.5*cfg.TargetQPS {
		t.Fatalf("achieved %.1f qps for an %0.f qps target", rep.AchievedQPS, cfg.TargetQPS)
	}
}

// A route that sheds every request fails its own SLO and no other
// route's: the report counts the 429s against /predict/batch, keeps
// them out of its latencies and out of /predict's counts.
func TestRunCountsShedsPerRoute(t *testing.T) {
	city := smallCity(80)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == RouteBatch {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("{}"))
	})}
	go srv.Serve(ln)
	defer srv.Close()

	cfg := Config{
		BaseURL:  "http://" + ln.Addr().String(),
		UEs:      8,
		Duration: 500 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     80,
		SLOs: map[string]SLO{
			RoutePredict: {P99Ms: 10000},
			RouteBatch:   {P99Ms: 10000},
		},
	}
	rep, err := Run(context.Background(), cfg, city, nil)
	if err != nil {
		t.Fatal(err)
	}
	byRoute := map[string]RouteReport{}
	for _, rr := range rep.Routes {
		byRoute[rr.Route] = rr
	}
	batch, pred := byRoute[RouteBatch], byRoute[RoutePredict]
	if batch.Requests == 0 || batch.Shed != batch.Requests || batch.Errors != 0 || batch.P50Ms != 0 {
		t.Fatalf("shedding route: %+v", batch)
	}
	if batch.SLOPass == nil || *batch.SLOPass {
		t.Fatalf("a route that sheds every request passed its SLO: %+v", batch)
	}
	if pred.Requests == 0 || pred.Shed != 0 || pred.SLOPass == nil || !*pred.SLOPass {
		t.Fatalf("serving route: %+v", pred)
	}
	if rep.SLOVerdict != "fail" {
		t.Fatalf("verdict %q with a shedding route", rep.SLOVerdict)
	}
}

func TestRunValidation(t *testing.T) {
	city := smallCity(79)
	if _, err := Run(context.Background(), Config{}, city, nil); err == nil {
		t.Fatal("empty base URL must error")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://127.0.0.1:1"}, nil, nil); err == nil {
		t.Fatal("nil city must error")
	}
}

func TestSLOVerdicts(t *testing.T) {
	pass, why := checkSLO(RouteReport{Requests: 100, P50Ms: 5, P99Ms: 20}, SLO{P50Ms: 10, P99Ms: 50})
	if !pass || why != "" {
		t.Fatalf("want pass, got %v (%s)", pass, why)
	}
	pass, why = checkSLO(RouteReport{Requests: 100, P50Ms: 15, P99Ms: 20}, SLO{P50Ms: 10})
	if pass || why == "" {
		t.Fatal("p50 breach must fail with a reason")
	}
	pass, _ = checkSLO(RouteReport{Requests: 100, Errors: 5, P50Ms: 1}, SLO{P50Ms: 10})
	if pass {
		t.Fatal("5% errors must fail the default 1% budget")
	}
	pass, _ = checkSLO(RouteReport{Requests: 100, Shed: 5, P50Ms: 1}, SLO{P50Ms: 10})
	if pass {
		t.Fatal("5% shed must fail the default 1% budget like errors")
	}
	pass, _ = checkSLO(RouteReport{}, SLO{P99Ms: 100})
	if pass {
		t.Fatal("zero measured requests must fail")
	}
}
