package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lumos5g"
	"lumos5g/internal/ingest"
)

// ingestFixture generates (once) the same clean campaign the serving
// fixture is built from, as wire samples ready to POST at the router.
var ingestFixOnce struct {
	sync.Once
	samples []ingest.Sample
}

func ingestSamples(t *testing.T, n int) []ingest.Sample {
	t.Helper()
	ingestFixOnce.Do(func() {
		area, err := lumos5g.AreaByName("Airport")
		if err != nil {
			panic(err)
		}
		cfg := lumos5g.CampaignConfig{Seed: 1, WalkPasses: 3, BackgroundUEProb: 0.1}
		clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
		ingestFixOnce.samples = make([]ingest.Sample, clean.Len())
		for i := range clean.Records {
			ingestFixOnce.samples[i] = ingest.SampleFromRecord(&clean.Records[i])
		}
	})
	if n > len(ingestFixOnce.samples) {
		n = len(ingestFixOnce.samples)
	}
	return ingestFixOnce.samples[:n]
}

func postIngest(t *testing.T, rt *Router, samples []ingest.Sample) (int, http.Header, IngestResponse) {
	t.Helper()
	body, err := json.Marshal(samples)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(string(body))))
	var resp IngestResponse
	if rec.Code == 200 || rec.Code == 429 {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable ingest response (%d): %s", rec.Code, rec.Body.String())
		}
	}
	return rec.Code, rec.Result().Header, resp
}

// fp returns a pointer to v, for building deliberately broken samples.
func fp(v float64) *float64 { return &v }

// TestFleetIngestRoutedAccounting scatters a mixed batch through the
// router: valid samples land on the shard owning their map cell and are
// admitted by that replica's gate; broken samples are rejected with the
// same reason labels a single server's gate would use (the satellite
// rule: CSV, replica ingest, and routed ingest reject identically), and
// the router's merged accounting matches what the replicas actually
// counted.
func TestFleetIngestRoutedAccounting(t *testing.T) {
	cfg := testFleetConfig()
	cfg.Ingest = &ingest.Config{QueueSize: 8192}
	f := startTestFleet(t, cfg)

	valid := ingestSamples(t, 600)
	batch := make([]ingest.Sample, len(valid), len(valid)+3)
	copy(batch, valid)
	noLat := valid[0]
	noLat.Lat = nil
	badLat := valid[1]
	badLat.Lat = fp(999)
	badFix := valid[2]
	badFix.GPSAccuracy = fp(50)
	batch = append(batch, noLat, badLat, badFix)

	code, _, resp := postIngest(t, f.Router(), batch)
	if code != 200 {
		t.Fatalf("routed ingest: status %d", code)
	}
	if resp.Partial || resp.Failed != 0 || resp.Dropped != 0 {
		t.Fatalf("healthy fleet ingest went partial: %+v", resp)
	}
	if resp.Accepted+resp.Rejected != len(batch) {
		t.Fatalf("accounting hole: %d+%d != %d", resp.Accepted, resp.Rejected, len(batch))
	}
	for _, reason := range []string{"missing_field", "latitude", "gps_fix"} {
		if resp.Reasons[reason] == 0 {
			t.Errorf("reason %q not reported: %v", reason, resp.Reasons)
		}
	}

	// The router's books match the replicas' gates exactly, and the
	// batch genuinely scattered: more than one shard holds samples.
	var repAccepted, repRejected uint64
	shardsHit := 0
	for _, ss := range f.shards {
		hit := false
		for _, sr := range ss.reps {
			h := sr.ms.Ingestor().Health()
			repAccepted += h.Accepted
			repRejected += h.Rejected
			if h.Accepted > 0 {
				hit = true
			}
		}
		if hit {
			shardsHit++
		}
	}
	if repAccepted != uint64(resp.Accepted) || repRejected != uint64(resp.Rejected) {
		t.Fatalf("router says %d/%d, replicas counted %d/%d",
			resp.Accepted, resp.Rejected, repAccepted, repRejected)
	}
	if shardsHit < 2 {
		t.Fatalf("batch landed on %d shard(s); routing by cell should scatter it", shardsHit)
	}
	if got := f.Router().m.ingestRows.Total(map[string]string{"outcome": "accepted"}); got != uint64(resp.Accepted) {
		t.Fatalf("fleet_ingest_rows_total{accepted} = %d, want %d", got, resp.Accepted)
	}
}

// TestFleetIngestBackpressure fills a shard's ingest queues: the router
// must walk past a backpressured replica to its sibling, and only when
// the whole shard is saturated answer 429 + Retry-After with the
// samples counted as dropped, not failed.
func TestFleetIngestBackpressure(t *testing.T) {
	cfg := testFleetConfig()
	// No drain between the posts below, so a full queue stays full.
	cfg.Ingest = &ingest.Config{QueueSize: 1, Refit: ingest.RefitConfig{DrainInterval: time.Hour}}
	f := startTestFleet(t, cfg)

	// Every copy targets the same cell, hence the same owning shard.
	one := ingestSamples(t, 1)[0]
	batch := make([]ingest.Sample, 8)
	for i := range batch {
		batch[i] = one
	}

	code, _, resp := postIngest(t, f.Router(), batch)
	if code != 200 || resp.Accepted != 1 || resp.Dropped != 7 {
		t.Fatalf("first batch: %d %+v, want one admitted and the rest shed", code, resp)
	}

	saw429 := false
	for i := 0; i < 5 && !saw429; i++ {
		code, hdr, resp := postIngest(t, f.Router(), batch)
		switch code {
		case 200:
			// A sibling replica still had room.
			if resp.Failed != 0 || resp.Partial {
				t.Fatalf("backpressure turned into failure: %+v", resp)
			}
		case 429:
			saw429 = true
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			if resp.Accepted != 0 || resp.Failed != 0 || resp.Dropped != len(batch) {
				t.Fatalf("saturated shard accounting: %+v", resp)
			}
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if !saw429 {
		t.Fatal("shard never saturated into whole-batch 429")
	}
	if f.Router().m.ingestRows.Total(map[string]string{"outcome": "dropped"}) == 0 {
		t.Fatal("dropped samples not counted in fleet_ingest_rows_total")
	}
}

// TestFleetIngestPartialOnDeadShard kills every replica of the owning
// shard: those samples must surface as an explicitly partial response
// with the shard named, not vanish or fail the whole batch.
func TestFleetIngestPartialOnDeadShard(t *testing.T) {
	cfg := testFleetConfig()
	cfg.Ingest = &ingest.Config{QueueSize: 8192}
	f := startTestFleet(t, cfg)

	one := ingestSamples(t, 1)[0]
	owner := f.Topology().Owner(RouteKey(*one.Lat, *one.Lon, nil, nil))
	for _, rep := range owner.Replicas {
		if !f.DisableReplica(rep.ID) {
			t.Fatalf("cannot disable %s", rep.ID)
		}
	}

	batch := []ingest.Sample{one, one, one, one}
	code, _, resp := postIngest(t, f.Router(), batch)
	if code != 200 {
		t.Fatalf("partial ingest: status %d", code)
	}
	if !resp.Partial || resp.Failed != len(batch) || resp.Accepted != 0 {
		t.Fatalf("dead shard outcome: %+v", resp)
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != owner.ID {
		t.Fatalf("missing = %v, want [%s]", resp.Missing, owner.ID)
	}
}
