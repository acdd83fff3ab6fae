package mapserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lumos5g/internal/core"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/wire"
)

// metricValue extracts one series value from a Prometheus text
// exposition; ok is false when the series is absent.
func metricValue(exposition, series string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, found := strings.CutPrefix(line, series+" "); found {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// sumSeries sums every series whose name+labels start with prefix.
func sumSeries(exposition, prefix string) float64 {
	var total float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err == nil {
			total += v
		}
	}
	return total
}

// TestMetricsInvariantUnderConcurrentLoad is the acceptance test for
// the counting design: after hammering /predict from many goroutines
// (mixed cache hits and misses across distinct quantized keys), the
// exact audit identity
//
//	requests{route=/predict,code=200} = Σ tier_served{route=/predict}
//	                                  + cache_hits + cache_uncached
//
// must hold on /metrics, and /healthz — which reads the same registry —
// must agree number for number.
func TestMetricsInvariantUnderConcurrentLoad(t *testing.T) {
	tm, _ := setup(t)
	s, err := NewWithChain(tm, trainedChain(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// ~20 distinct quantized keys → a mix of misses and hits.
				url := fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=%d&bearing=10",
					srv.URL, testLat, testLon, (g*perWorker+i)%20)
				resp, body := get(t, url)
				if resp.StatusCode != 200 {
					t.Errorf("predict: %d %s", resp.StatusCode, body)
					return
				}
				if i%10 == 0 {
					get(t, srv.URL+"/healthz")
				}
			}
		}(g)
	}
	wg.Wait()

	resp, exposition := get(t, srv.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type: %q", ct)
	}

	requests200, ok := metricValue(exposition, `lumos_http_requests_total{route="/predict",code="200"}`)
	if !ok || requests200 != workers*perWorker {
		t.Fatalf("requests counter: %v (ok=%v), want %d", requests200, ok, workers*perWorker)
	}
	served := sumSeries(exposition, `lumos_predict_tier_served_total{route="/predict",`)
	hits, _ := metricValue(exposition, "lumos_predict_cache_hits_total")
	uncached, _ := metricValue(exposition, "lumos_predict_cache_uncached_total")
	if served+hits+uncached != requests200 {
		t.Fatalf("invariant broken: served %v + hits %v + uncached %v != responses %v",
			served, hits, uncached, requests200)
	}
	// The per-route latency histogram saw every request.
	histCount, _ := metricValue(exposition, `lumos_http_request_duration_seconds_count{route="/predict"}`)
	if histCount != requests200 {
		t.Fatalf("latency histogram count %v vs requests %v", histCount, requests200)
	}

	// /healthz reads the same instruments: number-for-number agreement.
	var h healthJSON
	_, hb := get(t, srv.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	misses, _ := metricValue(exposition, "lumos_predict_cache_misses_total")
	if float64(h.CacheHits) != hits || float64(h.CacheMisses) != misses || float64(h.CacheUncached) != uncached {
		t.Fatalf("healthz/metrics drift: %+v vs hits %v misses %v uncached %v", h, hits, misses, uncached)
	}
	var healthServed uint64
	for _, n := range h.TiersServed {
		healthServed += n
	}
	if float64(healthServed) != served {
		t.Fatalf("healthz tiers_served %v vs metrics %v", healthServed, served)
	}

	// The quantile accessor answers from the same histogram.
	if p50 := s.RouteLatencyQuantile("/predict", 0.5); math.IsNaN(p50) || p50 < 0 {
		t.Fatalf("p50: %v", p50)
	}
	if p99 := s.RouteLatencyQuantile("/predict", 0.99); p99 < s.RouteLatencyQuantile("/predict", 0.5) {
		t.Fatalf("p99 below p50")
	}
}

// TestTimeoutResponseWireShape pins the fix for the expiry body: the
// 503 the timeout layer writes must carry the JSON content type and the
// newline-terminated error shape every other response has.
func TestTimeoutResponseWireShape(t *testing.T) {
	tm, pred := setup(t)
	s, err := New(tm, pred, WithRequestTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s.mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, body := get(t, srv.URL+"/slow")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %d (%s)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout content type: %q", ct)
	}
	if body != `{"error":"request timed out"}`+"\n" {
		t.Fatalf("timeout body: %q", body)
	}
	var e wire.ErrorBody
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("timeout body is not the structured error shape: %q", body)
	}

	// The preset JSON content type must not leak onto non-JSON routes
	// that finish in time.
	resp, _ = get(t, srv.URL+"/map.svg")
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("svg content type clobbered: %q", ct)
	}
}

// TestPredictEmptyMapStaysFinite is the regression for the non-finite
// audit: a server over an empty map must answer 200 with the 1 Mbps
// floor prior, not NaN (and certainly not a marshal panic).
func TestPredictEmptyMapStaysFinite(t *testing.T) {
	tm := &core.ThroughputMap{Cells: map[geo.GridKey]*core.MapCell{}, MinSamples: 1}
	s, err := NewWithChain(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/predict?lat=45&lon=7", nil))
	if rr.Code != 200 {
		t.Fatalf("empty map predict: %d %s", rr.Code, rr.Body.String())
	}
	var pr predictResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Mbps != 1 || pr.Source != "map-mean" {
		t.Fatalf("empty map answer: %+v", pr)
	}
}

// TestPredictInfCellFallsToPrior: a degenerate cell whose mean is +Inf
// (hostile or corrupted map artifact) must neither reach the wire nor
// poison the map-wide prior.
func TestPredictInfCellFallsToPrior(t *testing.T) {
	px := geo.Pixelize(geo.LatLon{Lat: 45, Lon: 7}, geo.DefaultZoom)
	key := geo.GridKey{Col: px.X / 2, Row: px.Y / 2}
	tm := &core.ThroughputMap{
		Cells:      map[geo.GridKey]*core.MapCell{key: {Key: key, MeanMbps: math.Inf(1), N: 3}},
		MinSamples: 1,
	}
	if m := engine.MapMean(tm); math.IsInf(m, 0) || math.IsNaN(m) {
		t.Fatalf("map prior must stay finite: %v", m)
	}
	s, err := NewWithChain(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/predict?lat=45&lon=7", nil))
	if rr.Code != 200 {
		t.Fatalf("inf-cell predict: %d %s", rr.Code, rr.Body.String())
	}
	var pr predictResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Source != "map-mean" || math.IsInf(pr.Mbps, 0) || math.IsNaN(pr.Mbps) {
		t.Fatalf("inf cell served: %+v", pr)
	}
}

// TestRequestLogging checks the structured log path: one JSON line per
// request, the X-Request-Id echoed to the client matching the line's
// id, and the predict annotations (tier/source/cache) present.
func TestRequestLogging(t *testing.T) {
	tm, _ := setup(t)
	var buf bytes.Buffer
	s, err := NewWithChain(tm, nil, WithRequestLog(&buf))
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("/predict?lat=%f&lon=%f", testLat, testLon)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
	if rr.Code != 200 {
		t.Fatalf("predict: %d", rr.Code)
	}
	id := rr.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("X-Request-Id missing")
	}
	rr2 := httptest.NewRecorder()
	s.ServeHTTP(rr2, httptest.NewRequest("GET", "/healthz", nil))
	if id2 := rr2.Header().Get("X-Request-Id"); id2 == "" || id2 == id {
		t.Fatalf("request IDs must be unique: %q vs %q", id, id2)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d: %q", len(lines), buf.String())
	}
	var line accessLogLine
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("log line not JSON: %v %q", err, lines[0])
	}
	if line.ID != id || line.Method != "GET" || line.Path != "/predict" || line.Status != 200 {
		t.Fatalf("log line: %+v", line)
	}
	if line.Tier == nil || *line.Tier != -1 || line.Source != "map-cell" || line.Cache != "off" {
		t.Fatalf("predict annotations: %+v", line)
	}
	if line.Bytes <= 0 || line.DurMS < 0 || line.Time == "" {
		t.Fatalf("log line bookkeeping: %+v", line)
	}
	var health accessLogLine
	if err := json.Unmarshal([]byte(lines[1]), &health); err != nil {
		t.Fatal(err)
	}
	if health.Path != "/healthz" || health.Tier != nil {
		t.Fatalf("healthz log line: %+v", health)
	}
}

// TestMetricsRouteToggle: WithMetricsRoute(false) unmounts the
// exposition route but keeps the registry (and /healthz) live.
func TestMetricsRouteToggle(t *testing.T) {
	tm, _ := setup(t)
	s, err := NewWithChain(tm, nil, WithMetricsRoute(false))
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("disabled /metrics: %d", rr.Code)
	}
	if s.Metrics() == nil {
		t.Fatal("registry must exist regardless of the route")
	}
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Fatalf("healthz: %d", rr.Code)
	}
}

// TestErrorStatusesCounted: withObs sees the status the client saw,
// including errors from the middleware layers beneath it.
func TestErrorStatusesCounted(t *testing.T) {
	tm, _ := setup(t)
	s, err := NewWithChain(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/predict?lat=999&lon=0", nil))
	if rr.Code != 400 {
		t.Fatalf("bad query: %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("DELETE", "/predict", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("method: %d", rr.Code)
	}
	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if v, ok := metricValue(out, `lumos_http_requests_total{route="/predict",code="400"}`); !ok || v != 1 {
		t.Fatalf("400 count: %v %v\n%s", v, ok, out)
	}
	if v, ok := metricValue(out, `lumos_http_requests_total{route="/predict",code="405"}`); !ok || v != 1 {
		t.Fatalf("405 count: %v %v", v, ok)
	}
}
