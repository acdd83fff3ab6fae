package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"lumos5g/internal/dataset"
	"lumos5g/internal/features"
	"lumos5g/internal/obs"
)

func newTestIngestor(t *testing.T, cfg Config) *Ingestor {
	t.Helper()
	return New(obs.NewRegistry(), cfg)
}

func fp(v float64) *float64 { return &v }

// validSample is an in-range Airport-ish measurement.
func validSample() Sample {
	return Sample{
		Area: "Airport", Trajectory: "T1", Pass: 1, Second: 30,
		Lat: fp(44.88), Lon: fp(-93.20),
		GPSAccuracy: fp(3), SpeedKmh: fp(4.5), CompassDeg: fp(90),
		ThroughputMbps: fp(350),
		LteRsrp:        fp(-95), SSRsrp: fp(-85), SSSinr: fp(12),
	}
}

func TestGateAcceptsValidSample(t *testing.T) {
	ing := newTestIngestor(t, Config{})
	res := ing.Ingest([]Sample{validSample()})
	if res.Accepted != 1 || res.Rejected != 0 || res.Dropped != 0 {
		t.Fatalf("accounting = %+v, want 1 accepted", res)
	}
	if got := ing.Drain(); got != 1 {
		t.Fatalf("drained %d records, want 1", got)
	}
	n, cells := ing.windowStats()
	if n != 1 || cells != 1 {
		t.Fatalf("window = %d samples / %d cells, want 1/1", n, cells)
	}
}

func TestGateRejectReasons(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Sample)
		reason string
	}{
		{"missing latitude", func(s *Sample) { s.Lat = nil }, "missing_field"},
		{"missing throughput", func(s *Sample) { s.ThroughputMbps = nil }, "missing_field"},
		{"unknown radio", func(s *Sample) { s.Radio = "5G" }, "radio"},
		{"latitude out of range", func(s *Sample) { s.Lat = fp(999) }, "latitude"},
		{"longitude out of range", func(s *Sample) { s.Lon = fp(-181) }, "longitude"},
		{"negative speed", func(s *Sample) { s.SpeedKmh = fp(-5) }, "speed_kmh"},
		{"absurd speed", func(s *Sample) { s.SpeedKmh = fp(1200) }, "speed_kmh"},
		{"negative throughput", func(s *Sample) { s.ThroughputMbps = fp(-1) }, "throughput_mbps"},
		{"positive lte_rssi", func(s *Sample) { s.LteRssi = fp(5) }, "lte_rssi"},
		{"impossible ss_rsrq", func(s *Sample) { s.SSRsrq = fp(30) }, "ss_rsrq"},
		{"gps fix worse than per-fix cap", func(s *Sample) { s.GPSAccuracy = fp(dataset.MaxFixGPSErrorMeters + 1) }, "gps_fix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ing := newTestIngestor(t, Config{})
			s := validSample()
			tc.mutate(&s)
			res := ing.Ingest([]Sample{s})
			if res.Rejected != 1 {
				t.Fatalf("accounting = %+v, want 1 rejected", res)
			}
			if res.Reasons[tc.reason] != 1 {
				t.Fatalf("reasons = %v, want %q", res.Reasons, tc.reason)
			}
			// The counter label matches the per-batch reason.
			if n := ing.m.rejected.Total(map[string]string{"reason": tc.reason}); n != 1 {
				t.Fatalf("lumos_ingest_rejected_total{reason=%q} = %d, want 1", tc.reason, n)
			}
		})
	}
}

// Every reason the gate can emit must be inside the closed label set —
// otherwise /metrics cardinality is no longer bounded by construction.
func TestRejectReasonsClosed(t *testing.T) {
	known := make(map[string]bool)
	for _, r := range RejectReasons() {
		known[r] = true
	}
	for _, reason := range []string{"missing_field", "radio", "gps_fix", "gps_trace", "latitude", "speed_kmh", "lte_rssi"} {
		if !known[reason] {
			t.Errorf("reason %q missing from RejectReasons()", reason)
		}
	}
}

// The §3.1 trace rule: a trace whose running mean GPS error exceeds
// MaxMeanGPSErrorMeters is condemned — including all its later samples,
// even individually accurate ones.
func TestGateCondemnsBadTrace(t *testing.T) {
	ing := newTestIngestor(t, Config{})
	mk := func(acc float64, sec int) Sample {
		s := validSample()
		s.GPSAccuracy = fp(acc)
		s.Second = sec
		return s
	}
	var batch []Sample
	for i := 0; i < 5; i++ {
		batch = append(batch, mk(7, i)) // mean 7 > 5, each fix < 12
	}
	batch = append(batch, mk(1, 5)) // innocent fix on a condemned trace
	res := ing.Ingest(batch)
	if res.Accepted != 4 {
		t.Fatalf("accepted %d, want 4 (before the mean crossed)", res.Accepted)
	}
	if res.Reasons["gps_trace"] != 2 {
		t.Fatalf("reasons = %v, want gps_trace=2 (condemning fix + latched follow-up)", res.Reasons)
	}
	// A different trace is unaffected.
	other := validSample()
	other.Trajectory = "T2"
	if res := ing.Ingest([]Sample{other}); res.Accepted != 1 {
		t.Fatalf("sibling trace rejected: %+v", res)
	}
}

// CSV lenient loading and live ingest must reject identically
// (satellite 1): a row the lenient loader quarantines for a value
// violation is a sample the gate rejects under the same field name.
func TestGateMatchesLenientCSVRejection(t *testing.T) {
	s := validSample()
	s.Lat = fp(91) // out of physical range

	ing := newTestIngestor(t, Config{})
	res := ing.Ingest([]Sample{s})
	if res.Reasons["latitude"] != 1 {
		t.Fatalf("ingest reasons = %v, want latitude", res.Reasons)
	}

	// Same measurement as a CSV row: build the record bypassing the
	// gate, serialise, and lenient-load.
	rec := s.toRecord()
	var buf bytes.Buffer
	d := &dataset.Dataset{Records: []dataset.Record{rec}}
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	_, rep, err := dataset.ReadCSVLenient(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || len(rep.Errors) != 1 {
		t.Fatalf("lenient load quarantined %d rows, want 1", rep.Quarantined)
	}
	if !strings.Contains(rep.Errors[0].Error(), "latitude") {
		t.Fatalf("lenient quarantine reason %q does not name latitude", rep.Errors[0].Error())
	}
}

// The dataset's physical bounds must contain the serving-time usable
// ranges for every field both tables know: otherwise a value could be
// storable but the two layers would disagree about which side gates it.
func TestFieldBoundsContainServingRanges(t *testing.T) {
	pairs := map[string]string{ // dataset field -> features name
		"speed_kmh": "moving_speed",
		"lte_rsrp":  "lte_rsrp",
		"lte_rsrq":  "lte_rsrq",
		"lte_rssi":  "lte_rssi",
		"ss_rsrq":   "ss_rsrq",
		"pixel_x":   "pixel_x",
		"pixel_y":   "pixel_y",
	}
	bounds := dataset.FieldBounds()
	for df, ff := range pairs {
		b, ok := bounds[df]
		if !ok {
			t.Fatalf("dataset bounds missing %q", df)
		}
		fr, ok := features.ValidRange(ff)
		if !ok {
			t.Fatalf("features range missing %q", ff)
		}
		if b[0] > fr.Lo || b[1] < fr.Hi {
			t.Errorf("%s: physical bounds [%g,%g] do not contain serving range [%g,%g]",
				df, b[0], b[1], fr.Lo, fr.Hi)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	ing := newTestIngestor(t, Config{QueueSize: 4})
	batch := make([]Sample, 6)
	for i := range batch {
		batch[i] = validSample()
		batch[i].Second = i
	}
	res := ing.Ingest(batch)
	if res.Accepted != 4 || res.Dropped != 2 {
		t.Fatalf("accounting = %+v, want 4 accepted / 2 dropped", res)
	}
	if got := ing.m.shed.Value(); got != 2 {
		t.Fatalf("lumos_ingest_shed_total = %d, want 2", got)
	}
	// A full queue answers 429 + Retry-After through the handler.
	body, _ := json.Marshal([]Sample{validSample()})
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
	w := httptest.NewRecorder()
	ing.ServeHTTP(w, req)
	if w.Code != 429 {
		t.Fatalf("full-queue status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Draining frees the queue; the same upload then lands.
	ing.Drain()
	w = httptest.NewRecorder()
	ing.ServeHTTP(w, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("post-drain status = %d, want 200", w.Code)
	}
}

func TestServeHTTPDecodeHardening(t *testing.T) {
	ing := newTestIngestor(t, Config{})
	cases := []struct {
		name   string
		method string
		body   string
		code   int
	}{
		{"GET rejected", "GET", "", 405},
		{"not an array", "POST", `{"lat": 1}`, 400},
		{"malformed JSON", "POST", `[{"lat":`, 400},
		{"NaN token", "POST", `[{"lat": NaN}]`, 400},
		{"Infinity token", "POST", `[{"lat": Infinity}]`, 400},
		{"empty batch", "POST", `[]`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/ingest", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			ing.ServeHTTP(w, req)
			if w.Code != tc.code {
				t.Fatalf("status = %d, want %d (body %q)", w.Code, tc.code, w.Body.String())
			}
		})
	}
	if n, _ := ing.windowStats(); n != 0 || ing.queueDepth() != 0 {
		t.Fatal("malformed requests leaked records into the pipeline")
	}
}

func TestServeHTTPAccounting(t *testing.T) {
	ing := newTestIngestor(t, Config{})
	good, bad := validSample(), validSample()
	bad.Lat = fp(999)
	body, _ := json.Marshal([]Sample{good, bad})
	w := httptest.NewRecorder()
	ing.ServeHTTP(w, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	var res BatchResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Rejected != 1 || res.Reasons["latitude"] != 1 {
		t.Fatalf("accounting = %+v", res)
	}
}

func TestWindowEviction(t *testing.T) {
	w := newWindow(3, 0)
	rec := func(px int, mbps float64) dataset.Record {
		return dataset.Record{PixelX: px, PixelY: 0, ThroughputMbps: mbps,
			GPSAccuracy: math.NaN(), SpeedKmh: math.NaN()}
	}
	w.add(rec(0, 100)) // cell {0,0}
	w.add(rec(2, 200)) // cell {1,0}
	w.add(rec(4, 300)) // cell {2,0}
	if n, c := w.stats(); n != 3 || c != 3 {
		t.Fatalf("window = %d/%d, want 3/3", n, c)
	}
	// Fourth add evicts the oldest record and its cell.
	w.add(rec(6, 400))
	if n, c := w.stats(); n != 3 || c != 3 {
		t.Fatalf("after eviction window = %d/%d, want 3/3", n, c)
	}
	snap := w.snapshot()
	if len(snap.Records) != 3 || snap.Records[0].PixelX != 2 || snap.Records[2].PixelX != 6 {
		t.Fatalf("snapshot order wrong: %+v", snap.Records)
	}
	if _, ok := w.cells[cellOf(&snap.Records[0])]; !ok {
		t.Fatal("surviving record's cell missing")
	}
	agg := w.cells[cellOf(&snap.Records[0])]
	if agg.n != 1 || agg.sum != 200 {
		t.Fatalf("cell agg = %+v, want n=1 sum=200", agg)
	}
}

func TestHealthSnapshot(t *testing.T) {
	ing := newTestIngestor(t, Config{QueueSize: 8})
	good, bad := validSample(), validSample()
	bad.SpeedKmh = fp(-1)
	ing.Ingest([]Sample{good, good, bad})
	h := ing.Health()
	if h.Accepted != 2 || h.Rejected != 1 || h.QueueDepth != 2 || h.QueueCap != 8 {
		t.Fatalf("health = %+v", h)
	}
	if h.RejectReasons["speed_kmh"] != 1 {
		t.Fatalf("health reasons = %v", h.RejectReasons)
	}
	if len(h.Quarantine) != 1 || h.Quarantine[0].Reason != "speed_kmh" {
		t.Fatalf("quarantine = %+v", h.Quarantine)
	}
	ing.Drain()
	h = ing.Health()
	if h.QueueDepth != 0 || h.WindowSamples != 2 {
		t.Fatalf("post-drain health = %+v", h)
	}
}

// SampleFromRecord inverts toRecord for every field the gate reads, so
// replayed campaigns hit the gate exactly as live uploads would.
func TestSampleRecordRoundTrip(t *testing.T) {
	s := validSample()
	rec := s.toRecord()
	back := SampleFromRecord(&rec)
	rec2 := back.toRecord()
	// Compare via the CSV codec: NaN optionals serialise identically
	// (empty cells), so this is NaN-tolerant field equality.
	var a, b bytes.Buffer
	if err := (&dataset.Dataset{Records: []dataset.Record{rec}}).WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := (&dataset.Dataset{Records: []dataset.Record{rec2}}).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("round-trip mismatch:\n  %s\n  %s", a.String(), b.String())
	}
}
