package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/wire"
)

// The fleet and a solo server speak one query contract (internal/wire):
// the same answer form for every negotiation, the same bounds, and the
// same 400s past them.

// serve runs one request through h and returns the recorder.
func serve(h http.Handler, method, target, contentType, accept string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestFleetNegotiationMatrix: for every request encoding × Accept ×
// ?intervals cell, a complete fleet answer has the solo server's status
// and Content-Type, binary answers are byte-identical to the solo
// server's frame, and JSON answers keep the fleet's BatchResponse
// envelope with the band exactly when intervals were negotiated.
func TestFleetNegotiationMatrix(t *testing.T) {
	f, points := startCalibratedFleet(t)
	solo, err := mapserver.NewWithChain(calTM, calChain)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]wire.Query, 0, 2*len(points))
	for i := 0; i < 2*len(points); i++ {
		p := points[i%len(points)]
		q := wire.Query{Lat: p[0], Lon: p[1]}
		if i%3 != 0 {
			sp, br := float64(i%20), float64((i*37)%360)
			q.Speed, q.Bearing = &sp, &br
		}
		qs = append(qs, q)
	}
	jsonBody, err := json.Marshal(qs)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{"application/json": jsonBody, wire.ContentType: wire.AppendQueries(nil, qs)}

	for _, ct := range []string{"application/json", wire.ContentType} {
		for _, accept := range []string{"", wire.ContentType, wire.ContentTypeIntervals} {
			for _, iv := range []string{"", "1", "true"} {
				target := "/predict/batch"
				if iv != "" {
					target += "?intervals=" + iv
				}
				name := fmt.Sprintf("%s/accept=%q/intervals=%q", ct, accept, iv)
				fl := serve(f.Router(), http.MethodPost, target, ct, accept, bodies[ct])
				so := serve(solo, http.MethodPost, target, ct, accept, bodies[ct])
				if fl.Code != http.StatusOK || so.Code != http.StatusOK {
					t.Fatalf("%s: fleet %d %.200s, solo %d %.200s", name, fl.Code, fl.Body, so.Code, so.Body)
				}
				fct, sct := fl.Header().Get("Content-Type"), so.Header().Get("Content-Type")
				if fct != sct {
					t.Fatalf("%s: fleet Content-Type %q, solo %q", name, fct, sct)
				}
				want := wire.Negotiate(accept, "intervals="+iv)
				if want.Binary {
					if sct != want.ContentType() {
						t.Fatalf("%s: solo Content-Type %q, the rule says %q", name, sct, want.ContentType())
					}
					if !bytes.Equal(fl.Body.Bytes(), so.Body.Bytes()) {
						t.Fatalf("%s: fleet frame (%d B) != solo frame (%d B)", name, fl.Body.Len(), so.Body.Len())
					}
					continue
				}
				var env BatchResponse
				if err := json.Unmarshal(fl.Body.Bytes(), &env); err != nil {
					t.Fatalf("%s: fleet JSON is not a BatchResponse: %v", name, err)
				}
				if env.Partial || len(env.Rows) != len(qs) {
					t.Fatalf("%s: partial=%v rows=%d", name, env.Partial, len(env.Rows))
				}
				if got := env.Rows[0].P10 != nil; got != want.Intervals {
					t.Fatalf("%s: JSON rows carry the band %v, want %v", name, got, want.Intervals)
				}
			}
		}
	}
}

// TestFleetEnforcesReplicaBounds: the router admits exactly what a
// replica admits. wire.MaxBatchRows rows are served whole through a
// one-shard fleet; one row more, or an /ingest body past
// wire.MaxBodyBytes, gets the solo server's own 400 from the router
// instead of a 200 whose rows all failed downstream; JSON bodies that
// only the encoding/json fallback decodes get the same rows from both;
// a JSON body with more than whitespace after its array gets the same
// 400 from both, while a trailing newline is still served; and an
// /ingest body inside
// the bound reaches the replica inside it too, even when a re-encoding
// of its samples would not fit.
func TestFleetEnforcesReplicaBounds(t *testing.T) {
	cfg := testFleetConfig()
	cfg.Shards, cfg.Replicas = 1, 1
	cfg.Ingest = &ingest.Config{}
	f := startTestFleet(t, cfg)
	tm, chain, points := fixture(t)
	solo, err := mapserver.NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	solo.AttachIngestor(ingest.New(solo.Metrics(), ingest.Config{}))

	batch := func(n int) []byte {
		qs := make([]wire.Query, n)
		for i := range qs {
			p := points[i%len(points)]
			qs[i] = wire.Query{Lat: p[0], Lon: p[1]}
		}
		b, err := json.Marshal(qs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rec := serve(f.Router(), http.MethodPost, "/predict/batch", "application/json", "", batch(wire.MaxBatchRows))
	if rec.Code != http.StatusOK {
		t.Fatalf("%d rows: %d %.200s", wire.MaxBatchRows, rec.Code, rec.Body)
	}
	var env BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Partial || len(env.Rows) != wire.MaxBatchRows {
		t.Fatalf("%d rows: partial=%v rows=%d", wire.MaxBatchRows, env.Partial, len(env.Rows))
	}

	sameRejection := func(name, path string, body []byte) {
		t.Helper()
		fl := serve(f.Router(), http.MethodPost, path, "application/json", "", body)
		so := serve(solo, http.MethodPost, path, "application/json", "", body)
		if fl.Code != http.StatusBadRequest || so.Code != http.StatusBadRequest {
			t.Fatalf("%s: fleet %d %.200s, solo %d %.200s", name, fl.Code, fl.Body, so.Code, so.Body)
		}
		if !bytes.Equal(fl.Body.Bytes(), so.Body.Bytes()) {
			t.Fatalf("%s: fleet says %.200s, solo says %.200s", name, fl.Body, so.Body)
		}
	}
	sameRejection("MaxBatchRows+1 rows", "/predict/batch", batch(wire.MaxBatchRows+1))

	// JSON bodies that encoding/json accepts but the batch scanner
	// leaves to it: both front doors serve each one, as its canonical
	// twin, in the same frame.
	lat, lon := points[0][0], points[0][1]
	twin := fmt.Sprintf(`[{"lat":%v,"lon":%v}]`, lat, lon)
	for _, tc := range []struct{ name, body, twin string }{
		{"upper-case key", fmt.Sprintf(`[{"LAT":%v,"lon":%v}]`, lat, lon), twin},
		{"unknown member holding an object", fmt.Sprintf(`[{"lat":%v,"lon":%v,"note":{"by":"x"}}]`, lat, lon), twin},
		{"null speed", fmt.Sprintf(`[{"lat":%v,"lon":%v,"speed":null}]`, lat, lon), twin},
		{"null row", `[null]`, `[{"lat":0,"lon":0}]`},
	} {
		fl := serve(f.Router(), http.MethodPost, "/predict/batch", "application/json", wire.ContentType, []byte(tc.body))
		so := serve(solo, http.MethodPost, "/predict/batch", "application/json", wire.ContentType, []byte(tc.body))
		tw := serve(solo, http.MethodPost, "/predict/batch", "application/json", wire.ContentType, []byte(tc.twin))
		if fl.Code != http.StatusOK || so.Code != http.StatusOK || tw.Code != http.StatusOK {
			t.Fatalf("%s: fleet %d %.200s, solo %d %.200s, twin %d", tc.name, fl.Code, fl.Body, so.Code, so.Body, tw.Code)
		}
		if !bytes.Equal(fl.Body.Bytes(), so.Body.Bytes()) || !bytes.Equal(so.Body.Bytes(), tw.Body.Bytes()) {
			t.Fatalf("%s: fleet, solo and canonical-twin frames differ", tc.name)
		}
		rows, err := wire.DecodeResults(fl.Body.Bytes(), 1)
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: %d rows, %v", tc.name, len(rows), err)
		}
	}

	ingestOne, err := json.Marshal(ingestSamples(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string][]byte{"/predict/batch": batch(1), "/ingest": ingestOne} {
		sameRejection(path+" with trailing bytes", path, append(bytes.Clone(body), " this is not JSON"...))
		withNewline := append(bytes.Clone(body), '\n')
		fl := serve(f.Router(), http.MethodPost, path, "application/json", "", withNewline)
		so := serve(solo, http.MethodPost, path, "application/json", "", withNewline)
		if fl.Code != http.StatusOK || so.Code != http.StatusOK {
			t.Fatalf("%s with a trailing newline: fleet %d %.200s, solo %d %.200s", path, fl.Code, fl.Body, so.Code, so.Body)
		}
	}

	src := ingestSamples(t, ingest.MaxBatchSamples)
	samples := make([]ingest.Sample, ingest.MaxBatchSamples)
	for i := range samples {
		samples[i] = src[i%len(src)]
	}
	big, err := json.Marshal(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= wire.MaxBodyBytes {
		t.Fatalf("oversized ingest body is only %d bytes", len(big))
	}
	sameRejection("ingest body past MaxBodyBytes", "/ingest", big)

	fat := samples[:1600]
	for i := range fat {
		fat[i].Area = strings.Repeat("<", 200)
	}
	escaped, err := json.Marshal(fat)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.ReplaceAll(escaped, []byte(`\u003c`), []byte("<"))
	if len(body) > wire.MaxBodyBytes || len(escaped) <= wire.MaxBodyBytes {
		t.Fatalf("ingest body %d bytes, re-encoded %d: not inside the bound with an outgrowing re-encoding", len(body), len(escaped))
	}
	fl := serve(f.Router(), http.MethodPost, "/ingest", "application/json", "", body)
	so := serve(solo, http.MethodPost, "/ingest", "application/json", "", body)
	var fr IngestResponse
	var sr ingest.BatchResult
	if fl.Code != http.StatusOK || json.Unmarshal(fl.Body.Bytes(), &fr) != nil || so.Code != http.StatusOK || json.Unmarshal(so.Body.Bytes(), &sr) != nil {
		t.Fatalf("ingest inside the bound: fleet %d %.200s, solo %d %.200s", fl.Code, fl.Body, so.Code, so.Body)
	}
	if fr.Partial || fr.Failed != 0 || fr.Accepted != sr.Accepted || fr.Rejected != sr.Rejected || fr.Dropped != sr.Dropped {
		t.Fatalf("ingest inside the bound: fleet %+v, solo %+v", fr, sr)
	}
}
