package mapserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lumos5g"
)

var (
	setupOnce sync.Once
	testTM    *lumos5g.ThroughputMap
	testPred  *lumos5g.Predictor
	testLat   float64
	testLon   float64
)

func setup(t *testing.T) (*lumos5g.ThroughputMap, *lumos5g.Predictor) {
	t.Helper()
	setupOnce.Do(func() {
		area, err := lumos5g.AreaByName("Airport")
		if err != nil {
			panic(err)
		}
		cfg := lumos5g.CampaignConfig{Seed: 1, WalkPasses: 3, BackgroundUEProb: 0.1}
		clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
		testTM = lumos5g.BuildThroughputMap(clean, 2)
		p, err := lumos5g.Train(clean, lumos5g.GroupLM, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 1})
		if err != nil {
			panic(err)
		}
		testPred = p
		testLat = clean.Records[50].Latitude
		testLon = clean.Records[50].Longitude
	})
	return testTM, testPred
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	tm, pred := setup(t)
	s, err := New(tm, pred)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != 200 || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestMapSVG(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/map.svg")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Type") != "image/svg+xml" {
		t.Fatal("wrong content type")
	}
	if !strings.HasPrefix(body, "<svg") {
		t.Fatal("not SVG")
	}
}

func TestCellsJSON(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/cells.json")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cells []cellJSON
	if err := json.Unmarshal([]byte(body), &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range cells[:5] {
		if c.N <= 0 || c.MeanMbps < 0 {
			t.Fatalf("malformed cell %+v", c)
		}
	}
}

func TestPredict(t *testing.T) {
	srv := newTestServer(t)
	url := fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4.5&bearing=10", srv.URL, testLat, testLon)
	resp, body := get(t, url)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Mbps <= 0 || pr.Mbps > 2500 {
		t.Fatalf("implausible prediction %v", pr.Mbps)
	}
	if pr.Class == "" || pr.Group != "L+M" {
		t.Fatalf("response metadata: %+v", pr)
	}
}

func TestPredictValidation(t *testing.T) {
	srv := newTestServer(t)
	if resp, _ := get(t, srv.URL+"/predict?lat=abc&lon=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lat should 400, got %d", resp.StatusCode)
	}
	// Present-but-malformed optional parameters are still client errors.
	if resp, _ := get(t, fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=abc", srv.URL, testLat, testLon)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed speed should 400, got %d", resp.StatusCode)
	}
	// A missing speed is a missing sensor, not an error: the fallback
	// chain demotes the query instead of rejecting it.
	resp, body := get(t, fmt.Sprintf("%s/predict?lat=%f&lon=%f", srv.URL, testLat, testLon))
	if resp.StatusCode != 200 {
		t.Fatalf("missing speed should degrade, not fail: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded || pr.Source != lumos5g.LastResortGroup {
		t.Fatalf("single L+M tier without speed should serve from the last resort: %+v", pr)
	}
}

func TestModelDownloadRoundTrip(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The downloaded payload must load into a working chain — the §2.3
	// story end to end.
	chain, err := lumos5g.LoadChain(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	tiers := chain.Tiers()
	if len(tiers) != 1 || tiers[0].Group() != lumos5g.GroupLM {
		t.Fatalf("downloaded chain shape %s", chain)
	}
	if p := chain.PredictInterval(nil); p.Mbps < 0 || p.Mbps > 1e5 {
		t.Fatalf("downloaded model predicts nonsense: %+v", p)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil map should error")
	}
	tm, _ := setup(t)
	// A T+M predictor cannot back /predict.
	area, _ := lumos5g.AreaByName("Airport")
	clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, lumos5g.CampaignConfig{Seed: 2, WalkPasses: 2}))
	tmPred, err := lumos5g.Train(clean, lumos5g.GroupTM, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tm, tmPred); err == nil {
		t.Fatal("T+M predictor should be rejected")
	}
	// Nil predictor is fine; /model then 404s but /predict still answers
	// — degraded — from the throughput map itself.
	s, err := New(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	if resp, _ := get(t, srv.URL+"/model"); resp.StatusCode != http.StatusNotFound {
		t.Fatal("model route should 404 without a predictor")
	}
	resp, body := get(t, fmt.Sprintf("%s/predict?lat=%f&lon=%f", srv.URL, testLat, testLon))
	if resp.StatusCode != 200 {
		t.Fatalf("predict without a model should serve from the map: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded || pr.Tier != -1 || (pr.Source != "map-cell" && pr.Source != "map-mean") {
		t.Fatalf("model-less predict should be map-served and degraded: %+v", pr)
	}
}
