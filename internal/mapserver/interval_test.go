package mapserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"lumos5g"
	"lumos5g/internal/wire"
)

// predictIntervalResponse is the stdlib reference for the interval wire
// form (?intervals=1): the point fields of predictResponse with the
// p10/p50/p90 band spliced in right after mbps. The parity tests below
// pin appendPredict's interval flavor to json.Marshal of this struct.
type predictIntervalResponse struct {
	Mbps     float64  `json:"mbps"`
	P10      float64  `json:"p10"`
	P50      float64  `json:"p50"`
	P90      float64  `json:"p90"`
	Class    string   `json:"class"`
	Group    string   `json:"group"`
	Source   string   `json:"source"`
	Tier     int      `json:"tier"`
	Degraded bool     `json:"degraded"`
	Missing  []string `json:"missing,omitempty"`
}

// result is the engine answer whose interval body r is. P50 is dropped
// — the encoder repeats Mbps there.
func (r predictIntervalResponse) result() wire.Result {
	return wire.Result{
		Mbps: r.Mbps, Class: r.Class, Source: r.Source, Tier: r.Tier,
		Degraded: r.Degraded, Missing: r.Missing, P10: r.P10, P90: r.P90,
	}
}

// TestAppendPredictIntervalResponseMatchesStdlib pins the interval wire
// encoder to encoding/json byte for byte, over the same float forms,
// string escape classes and omitempty boundary the point encoder is
// pinned on.
func TestAppendPredictIntervalResponseMatchesStdlib(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 123.456, -981.25, 0.125,
		1e-6, 9.999e-7, 1e-7, 5e-324, 1e21, 1e20 * 9.999, -1e21, 2.5e30,
		math.MaxFloat64, 1234.000244140625, 888.125, 3.14159265358979,
	}
	strs := []string{
		"", "L+M", "map-cell", "quote\"back\\slash", "tab\tnew\nret\r",
		"html<&>", "uni\u00e9\u4e16\u754c", "bad\xffutf8",
		"sep\u2028and\u2029end", "emoji\U0001F600",
	}
	missing := [][]string{nil, {}, {"speed"}, {"speed", "bearing"}, {"we<ird&"}}
	var i int
	for _, f := range floats {
		for _, s := range strs {
			src := strs[(i+3)%len(strs)]
			resp := predictIntervalResponse{
				Mbps:     f,
				P10:      floats[i%len(floats)],
				P50:      f,
				P90:      floats[(i+5)%len(floats)],
				Class:    s,
				Group:    src,
				Source:   src,
				Tier:     i%5 - 1,
				Degraded: i%2 == 0,
				Missing:  missing[i%len(missing)],
			}
			i++
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			got := appendPredict(nil, resp.result(), true)
			if !bytes.Equal(got, want) {
				t.Fatalf("interval encoder diverges for %+v:\n got %s\nwant %s", resp, got, want)
			}
		}
	}
}

// TestMarshalIntervalResponseMatchesEncoder pins the cached interval
// body to json.Encoder output (trailing newline included), and the nil
// returns on non-finite values and bands.
func TestMarshalIntervalResponseMatchesEncoder(t *testing.T) {
	resp := predictIntervalResponse{Mbps: 432.1875, P10: 301.5, P50: 432.1875, P90: 598.25,
		Class: "High", Group: "L+M", Source: "L+M", Tier: 0}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	res := resp.result()
	if got := marshalPredict(res, true); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("marshalPredict %q != json.Encoder %q", got, buf.Bytes())
	}
	nan := res
	nan.Mbps = math.NaN()
	if marshalPredict(nan, true) != nil {
		t.Fatal("non-finite mbps must have no interval wire form")
	}
	inf := res
	inf.P10, inf.P90 = math.Inf(1), 1
	if marshalPredict(inf, true) != nil {
		t.Fatal("non-finite band must have no interval wire form")
	}
}

var (
	ivalOnce  sync.Once
	ivalTM    *lumos5g.ThroughputMap
	ivalChain *lumos5g.FallbackChain
	ivalLat   float64
	ivalLon   float64
)

// ivalSetup trains one conformally calibrated chain for the interval
// end-to-end tests (the shared setup() predictor is uncalibrated on
// purpose — it pins the degenerate path).
func ivalSetup(t *testing.T) (*lumos5g.ThroughputMap, *lumos5g.FallbackChain) {
	t.Helper()
	ivalOnce.Do(func() {
		area, err := lumos5g.AreaByName("Airport")
		if err != nil {
			panic(err)
		}
		cfg := lumos5g.CampaignConfig{Seed: 3, WalkPasses: 3, BackgroundUEProb: 0.1}
		clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
		ivalTM = lumos5g.BuildThroughputMap(clean, 2)
		chain, err := lumos5g.TrainCalibratedFallbackChain(clean, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 3})
		if err != nil {
			panic(err)
		}
		ivalChain = chain
		ivalLat = clean.Records[50].Latitude
		ivalLon = clean.Records[50].Longitude
	})
	return ivalTM, ivalChain
}

func newIntervalServer(t *testing.T) *httptest.Server {
	t.Helper()
	tm, chain := ivalSetup(t)
	s, err := NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

// TestPredictIntervalsEndToEnd: ?intervals=1 serves an ordered
// p10/p50/p90 triple whose p50 is exactly the point answer's mbps —
// whichever negotiation hits the cache first.
func TestPredictIntervalsEndToEnd(t *testing.T) {
	srv := newIntervalServer(t)
	point := fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4.5&bearing=10", srv.URL, ivalLat, ivalLon)
	ival := point + "&intervals=1"

	// Interval first (the cache leader), then point, then interval again
	// (a follower hit): every answer must agree on the point value.
	resp, ibody := get(t, ival)
	if resp.StatusCode != 200 {
		t.Fatalf("interval query: %d %s", resp.StatusCode, ibody)
	}
	var iv predictIntervalResponse
	if err := json.Unmarshal([]byte(ibody), &iv); err != nil {
		t.Fatal(err)
	}
	if !(iv.P10 <= iv.P50 && iv.P50 <= iv.P90) {
		t.Fatalf("interval ordering violated: %+v", iv)
	}
	if iv.P50 != iv.Mbps {
		t.Fatalf("p50 %v != mbps %v", iv.P50, iv.Mbps)
	}
	if iv.P10 < 0 {
		t.Fatalf("negative p10 %v", iv.P10)
	}
	if iv.P10 == iv.P90 {
		t.Fatalf("calibrated tier served a zero-width band: %+v", iv)
	}

	resp, pbody := get(t, point)
	if resp.StatusCode != 200 {
		t.Fatalf("point query: %d %s", resp.StatusCode, pbody)
	}
	if bytes.Contains([]byte(pbody), []byte(`"p10"`)) {
		t.Fatalf("interval-off body leaks the band: %s", pbody)
	}
	var pt predictResponse
	if err := json.Unmarshal([]byte(pbody), &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Mbps != iv.Mbps || pt.Source != iv.Source || pt.Tier != iv.Tier {
		t.Fatalf("point answer %+v disagrees with interval answer %+v", pt, iv)
	}

	if _, again := get(t, ival); again != ibody {
		t.Fatalf("interval hit body diverged:\n%s\n%s", again, ibody)
	}
}

// TestIntervalOffBytesUnchanged: on a server whose cache has already
// answered interval requests, the interval-off body is byte-identical
// to the body of a server that never saw an interval request —
// negotiating intervals perturbs nothing for existing clients.
func TestIntervalOffBytesUnchanged(t *testing.T) {
	tm, chain := ivalSetup(t)
	point := "/predict?lat=%f&lon=%f&speed=4.5&bearing=10"

	a, err := NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(a)
	defer srvA.Close()
	_, _ = get(t, fmt.Sprintf(srvA.URL+point+"&intervals=1", ivalLat, ivalLon))
	_, bodyA := get(t, fmt.Sprintf(srvA.URL+point, ivalLat, ivalLon))

	b, err := NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(b)
	defer srvB.Close()
	_, bodyB := get(t, fmt.Sprintf(srvB.URL+point, ivalLat, ivalLon))

	if bodyA != bodyB {
		t.Fatalf("interval traffic changed the point wire form:\n%s\n%s", bodyA, bodyB)
	}
}

// TestPredictBatchIntervals: the batch interval answers (JSON and the
// v2 binary frame) agree with each other and with single-query answers.
func TestPredictBatchIntervals(t *testing.T) {
	srv := newIntervalServer(t)
	batch := fmt.Sprintf(
		`[{"lat":%f,"lon":%f,"speed":4.5,"bearing":10},{"lat":%f,"lon":%f},{"lat":0,"lon":0}]`,
		ivalLat, ivalLon, ivalLat, ivalLon)

	resp, body := postJSON(t, srv.URL+"/predict/batch?intervals=1", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("json interval batch: %d %s", resp.StatusCode, body)
	}
	var rows []predictIntervalResponse
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if !(r.P10 <= r.P50 && r.P50 <= r.P90) || r.P50 != r.Mbps || r.P10 < 0 {
			t.Fatalf("row %d: bad band %+v", i, r)
		}
	}

	// Same batch over the binary interval frame.
	httpResp, frame := postRaw(t, srv.URL+"/predict/batch", []byte(batch), "application/json", wire.ContentTypeIntervals)
	if httpResp.StatusCode != 200 {
		t.Fatalf("binary interval batch: %d %s", httpResp.StatusCode, frame)
	}
	if ct := httpResp.Header.Get("Content-Type"); ct != wire.ContentTypeIntervals {
		t.Fatalf("content type %q", ct)
	}
	rs, err := wire.DecodeResults(frame, wire.MaxBatchRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(rows) {
		t.Fatalf("binary %d rows, json %d", len(rs), len(rows))
	}
	for i := range rs {
		if rs[i].Mbps != rows[i].Mbps || rs[i].P10 != rows[i].P10 || rs[i].P90 != rows[i].P90 {
			t.Fatalf("row %d: binary %+v != json %+v", i, rs[i], rows[i])
		}
	}

	// And each row agrees with the single-query interval endpoint.
	single := fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4.5&bearing=10&intervals=true", srv.URL, ivalLat, ivalLon)
	_, sbody := get(t, single)
	var sv predictIntervalResponse
	if err := json.Unmarshal([]byte(sbody), &sv); err != nil {
		t.Fatal(err)
	}
	if sv.P10 != rows[0].P10 || sv.P50 != rows[0].P50 || sv.P90 != rows[0].P90 {
		t.Fatalf("single %+v != batch row 0 %+v", sv, rows[0])
	}
}

// TestCacheDualBody drives the cache seam directly: one leader walk
// must satisfy both negotiations as hits.
func TestCacheDualBody(t *testing.T) {
	c := newPredCache(8, nil, nil)
	res := wire.Result{Mbps: 500, Class: "High", Source: "L", Tier: 1, P10: 400, P90: 620, HasInterval: true}
	comp := computerFunc(func() wire.Result { return res })
	key := predKey{}

	_, body, outcome := c.run(key, comp, false)
	if outcome != outcomeMiss {
		t.Fatalf("first run outcome %v", outcome)
	}
	if bytes.Contains(body, []byte(`"p10"`)) {
		t.Fatalf("point body carries the band: %s", body)
	}
	_, ibody, outcome := c.run(key, comp, true)
	if outcome != outcomeHit {
		t.Fatalf("interval flavour of a cached key must hit, got %v", outcome)
	}
	var iv predictIntervalResponse
	if err := json.Unmarshal(ibody, &iv); err != nil {
		t.Fatal(err)
	}
	if iv.P10 != res.P10 || iv.P90 != res.P90 || iv.P50 != res.Mbps {
		t.Fatalf("cached interval body %+v does not carry the leader's band", iv)
	}
}

// computerFunc adapts a plain function to the cache's computer seam.
type computerFunc func() wire.Result

func (f computerFunc) computePredict() wire.Result { return f() }
