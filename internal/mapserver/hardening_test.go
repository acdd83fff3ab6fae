package mapserver

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lumos5g/internal/wire"
)

func TestHealthzDegradedWithoutModel(t *testing.T) {
	tm, _ := setup(t)
	s, err := New(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("degraded healthz must still be 200, got %d", resp.StatusCode)
	}
	var h healthJSON
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || !h.Degraded || h.Model {
		t.Fatalf("degraded state not reported: %+v", h)
	}

	// With a model the same probe reports healthy.
	full := newTestServer(t)
	_, body = get(t, full.URL+"/healthz")
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Degraded || !h.Model {
		t.Fatalf("healthy state not reported: %+v", h)
	}
}

func TestRecoveryMiddlewareTurnsPanicInto500(t *testing.T) {
	h := withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d", rr.Code)
	}
	var e wire.ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("panic must produce a structured JSON error, got %q", rr.Body.String())
	}
}

func TestRecoveryThroughFullMiddlewareChain(t *testing.T) {
	// A panic inside a route must come back as a 500 through the whole
	// served chain (including the timeout handler's goroutine hop).
	tm, pred := setup(t)
	s, err := New(tm, pred)
	if err != nil {
		t.Fatal(err)
	}
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("injected")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, body := get(t, srv.URL+"/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"error"`) {
		t.Fatalf("want JSON error body, got %q", body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST must be rejected, got %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow header missing: %q", allow)
	}
}

func TestPredictRangeValidation(t *testing.T) {
	srv := newTestServer(t)
	cases := []string{
		"lat=999&lon=0&speed=4&bearing=10",  // latitude out of range
		"lat=0&lon=-999&speed=4&bearing=10", // longitude out of range
		"lat=0&lon=0&speed=-3&bearing=10",   // negative speed
		"lat=0&lon=0&speed=4&bearing=9999",  // bearing out of range
		"lat=NaN&lon=0&speed=4&bearing=10",  // non-finite input
	}
	// Missing optional params are NOT an error any more: the fallback
	// chain degrades instead (covered by TestPredictValidation).
	for _, qs := range cases {
		resp, body := get(t, srv.URL+"/predict?"+qs)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: want 400, got %d (%s)", qs, resp.StatusCode, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Fatalf("query %q: want structured JSON error, got %q", qs, body)
		}
	}
}

func TestRequestTimeoutMiddleware(t *testing.T) {
	tm, pred := setup(t)
	s, err := New(tm, pred, WithRequestTimeout(50*time.Millisecond))
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
		t.Fatalf("want 503 on timeout, got %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "timed out") {
		t.Fatalf("want timeout error body, got %q", body)
	}
}

func TestGracefulServeShutdown(t *testing.T) {
	tm, pred := setup(t)
	s, err := New(tm, pred)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, s, time.Second) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after ctx cancellation")
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
