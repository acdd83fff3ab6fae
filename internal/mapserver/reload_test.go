package mapserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lumos5g"
)

// trainedChain builds a two-tier L+M → L chain from the shared test
// dataset.
func trainedChain(t *testing.T) *lumos5g.FallbackChain {
	t.Helper()
	_, pred := setup(t)
	// Reuse the cached dataset indirectly: train an L tier on the same
	// campaign the suite already generated.
	area, err := lumos5g.AreaByName("Airport")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lumos5g.CampaignConfig{Seed: 1, WalkPasses: 3, BackgroundUEProb: 0.1}
	clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
	lPred, err := lumos5g.Train(clean, lumos5g.GroupL, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := lumos5g.NewFallbackChain(250, pred, lPred)
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

func TestPredictDegradesThroughChainTiers(t *testing.T) {
	tm, _ := setup(t)
	s, err := NewWithChain(tm, trainedChain(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Full query: first tier serves.
	resp, body := get(t, fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4&bearing=10", srv.URL, testLat, testLon))
	var pr predictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("%d %s: %v", resp.StatusCode, body, err)
	}
	if pr.Tier != 0 || pr.Degraded || pr.Source != "L+M" {
		t.Fatalf("full query: %+v", pr)
	}

	// No kinematics: location tier serves, response says why.
	_, body = get(t, fmt.Sprintf("%s/predict?lat=%f&lon=%f", srv.URL, testLat, testLon))
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Tier != 1 || !pr.Degraded || pr.Source != "L" || len(pr.Missing) == 0 {
		t.Fatalf("location-only query: %+v", pr)
	}

	// Health reflects the chain shape and serving counts.
	_, body = get(t, srv.URL+"/healthz")
	var h healthJSON
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Model || h.Degraded || len(h.Tiers) != 3 {
		t.Fatalf("health: %+v", h)
	}
	var served uint64
	for _, n := range h.TiersServed {
		served += n
	}
	if served != 2 {
		t.Fatalf("tiers_served %v", h.TiersServed)
	}
}

func TestReloadRejectsCorruptKeepsServing(t *testing.T) {
	tm, _ := setup(t)
	chain := trainedChain(t)
	s, err := NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.l5g")
	if err := chain.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadModelFile(path); err != nil {
		t.Fatal(err)
	}
	if reloads, rejected, lastErr := s.ReloadStats(); reloads != 1 || rejected != 0 || lastErr != "" {
		t.Fatalf("after good reload: %d %d %q", reloads, rejected, lastErr)
	}

	// Corrupt the artifact: reload must fail, old model must keep
	// serving, health must report the rejection.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadModelFile(path); err == nil {
		t.Fatal("corrupt artifact must be rejected")
	}
	if s.Chain() == nil {
		t.Fatal("old model dropped on rejected reload")
	}
	if reloads, rejected, lastErr := s.ReloadStats(); reloads != 1 || rejected != 1 || lastErr == "" {
		t.Fatalf("after rejected reload: %d %d %q", reloads, rejected, lastErr)
	}

	// Truncated artifact: same story.
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadModelFile(path); err == nil {
		t.Fatal("truncated artifact must be rejected")
	}

	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, body := get(t, fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4&bearing=10", srv.URL, testLat, testLon))
	if resp.StatusCode != 200 {
		t.Fatalf("predict after rejected reloads: %d %s", resp.StatusCode, body)
	}
	var h healthJSON
	_, body = get(t, srv.URL+"/healthz")
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Degraded || h.LastReloadError == "" || h.Rejected != 2 {
		t.Fatalf("health after rejections: %+v", h)
	}
}

// TestPredictDuringHotSwap hammers /predict from many goroutines while
// the model is concurrently reloaded from alternating good and corrupt
// artifacts — every response must be a valid prediction (run under
// -race; `make tier1` does).
func TestPredictDuringHotSwap(t *testing.T) {
	tm, _ := setup(t)
	chain := trainedChain(t)
	s, err := NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.l5g")
	bad := filepath.Join(dir, "bad.l5g")
	if err := chain.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(good)
	raw[len(raw)-3] ^= 0x1
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("/predict?lat=%f&lon=%f", testLat, testLon)
				if i%2 == 0 {
					url += "&speed=4&bearing=10"
				}
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
				if rr.Code != 200 {
					t.Errorf("predict during swap: %d %s", rr.Code, rr.Body.String())
					return
				}
				var pr predictResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil || pr.Mbps < 0 {
					t.Errorf("bad response during swap: %v %s", err, rr.Body.String())
					return
				}
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		if i%3 == 2 {
			_ = s.ReloadModelFile(bad) // must reject and keep serving
		} else if err := s.ReloadModelFile(good); err != nil {
			t.Errorf("good reload failed: %v", err)
		}
		if i%7 == 0 {
			s.SetChain(chain)
		}
	}
	close(stop)
	wg.Wait()
	if s.Chain() == nil {
		t.Fatal("chain lost during swaps")
	}
}

func TestWatchModelFile(t *testing.T) {
	tm, _ := setup(t)
	chain := trainedChain(t)
	s, err := NewWithChain(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.l5g")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan error, 64)
	go s.WatchModelFile(ctx, path, 5*time.Millisecond, func(err error) { events <- err })

	// The artifact appears: the watcher must pick it up.
	if err := chain.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-events:
		if err != nil {
			t.Fatalf("watcher rejected a good artifact: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never loaded the new artifact")
	}
	if s.Chain() == nil {
		t.Fatal("watcher did not install the model")
	}

	// The artifact is replaced by garbage: the watcher must reject it
	// and keep the old model.
	if err := os.WriteFile(path, []byte("not a model at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case err := <-events:
			if err == nil {
				continue // a late duplicate of the good load
			}
			if s.Chain() == nil {
				t.Fatal("old model dropped on corrupt watch reload")
			}
			return
		case <-deadline:
			t.Fatal("watcher never saw the corrupt artifact")
		}
	}
}

// TestStartModelWatchStops pins the drain contract of the joining stop
// handle: stop() cancels the poller AND waits for its goroutine to
// exit, so a drain sequence that calls it leaves no watcher stat-ing
// the artifact or swapping models behind the shutdown.
func TestStartModelWatchStops(t *testing.T) {
	tm, _ := setup(t)
	chain := trainedChain(t)
	s, err := NewWithChain(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.l5g")
	events := make(chan error, 64)
	stop := s.StartModelWatch(path, 2*time.Millisecond, func(err error) { events <- err })

	// Prove the watcher is live: drop an artifact and wait for the load.
	if err := chain.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-events:
		if err != nil {
			t.Fatalf("watcher rejected a good artifact: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never loaded the artifact")
	}

	// stop must join the goroutine, and calling it again must be a no-op.
	joined := make(chan struct{})
	go func() {
		stop()
		stop()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() did not join the watcher goroutine")
	}

	// The goroutine is gone: rewriting the artifact produces no events.
	for len(events) > 0 {
		<-events
	}
	if err := chain.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // 25 poll intervals, were it alive
	if n := len(events); n != 0 {
		t.Fatalf("watcher still polling after stop: %d events", n)
	}
}

// ReloadStats reports hot-reload health: successful swaps, rejected
// artifacts, and the last rejection message ("" when healthy).
func (s *Server) ReloadStats() (reloads, rejected uint64, lastErr string) {
	s.mu.RLock()
	lastErr = s.reloadErr
	s.mu.RUnlock()
	return s.m.reloads.Value(), s.m.reloadsRejected.Value(), lastErr
}
