package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lumos5g/internal/ingest"
	"lumos5g/internal/wire"
)

// clients is the closed-loop concurrency: two callers (the benchmark
// box's core count), each waiting for its answer before asking again,
// as a UE app or ABR player waits for its forecast.
const clients = 2

type reqKind int

const (
	kindPredict reqKind = iota // GET /predict?intervals=1
	kindBinary                 // POST /predict/batch, binary frame with intervals
	kindJSON                   // POST /predict/batch?intervals=1, JSON
	kindIngest                 // POST /ingest, JSON samples
)

// request is one pre-built workload request; rows index the workload's
// rows it asks about (or, for ingest, the samples it carries).
type request struct {
	kind reqKind
	path string
	body []byte
	rows []int
}

func (r *request) newHTTP(base string) *http.Request {
	if r.kind == kindPredict {
		req, _ := http.NewRequest(http.MethodGet, base+r.path, nil)
		return req
	}
	req, _ := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	switch r.kind {
	case kindBinary:
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentTypeIntervals)
	default:
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// roundTrip sends r and reads the whole answer into buf.
func roundTrip(c *http.Client, base string, r *request, buf *bytes.Buffer) (status int, ctype string, err error) {
	resp, err := c.Do(r.newHTTP(base))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), nil
}

// jsonBand is the interval part of a JSON batch answer row.
type jsonBand struct {
	Mbps *float64 `json:"mbps"`
	P10  *float64 `json:"p10"`
	P50  *float64 `json:"p50"`
	P90  *float64 `json:"p90"`
}

func (j jsonBand) band() (band, error) {
	if j.Mbps == nil || j.P10 == nil || j.P50 == nil || j.P90 == nil {
		return band{}, fmt.Errorf("answer lacks mbps/p10/p50/p90")
	}
	return checkedBand(*j.Mbps, *j.P10, *j.P50, *j.P90)
}

// checkedBand accepts a served band only if it is finite, ordered, and
// its p50 is the point forecast.
func checkedBand(mbps, p10, p50, p90 float64) (band, error) {
	b := band{p10: p10, p50: p50, p90: p90}
	if !b.valid() || mbps != p50 {
		return band{}, fmt.Errorf("answer band %+v (mbps %v) is not finite and ordered", b, mbps)
	}
	return b, nil
}

// jsonNumber returns the number after `"key":` in a flat JSON object.
// A /predict answer is a flat object with unique keys, so the scan is
// exact, and it keeps the in-process load generator from adding
// encoding/json's garbage to the heap the server shares with it.
func jsonNumber(body []byte, key string) (float64, error) {
	var pat [16]byte
	p := append(append(append(pat[:0], '"'), key...), '"', ':')
	i := bytes.Index(body, p)
	if i < 0 {
		return 0, fmt.Errorf("answer lacks %q", key)
	}
	rest := body[i+len(p):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, fmt.Errorf("answer field %q is unterminated", key)
	}
	return strconv.ParseFloat(string(rest[:end]), 64)
}

func predictBand(body []byte) (band, error) {
	var v [4]float64
	for i, k := range [4]string{"mbps", "p10", "p50", "p90"} {
		x, err := jsonNumber(body, k)
		if err != nil {
			return band{}, err
		}
		v[i] = x
	}
	return checkedBand(v[0], v[1], v[2], v[3])
}

// check validates one answer the way a client that relies on it must:
// status, Content-Type, row count, and every row finite with
// p10 <= p50 <= p90. It returns the served bands.
func check(r *request, status int, ctype string, body []byte) ([]band, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	want := "application/json"
	if r.kind == kindBinary {
		want = wire.ContentTypeIntervals
	}
	if ctype != want {
		return nil, fmt.Errorf("content type %q, want %q", ctype, want)
	}
	switch r.kind {
	case kindPredict:
		b, err := predictBand(body)
		return []band{b}, err
	case kindBinary:
		rs, err := wire.DecodeResults(body, len(r.rows))
		if err != nil {
			return nil, err
		}
		if len(rs) != len(r.rows) {
			return nil, fmt.Errorf("%d rows for %d queries", len(rs), len(r.rows))
		}
		out := make([]band, len(rs))
		for i, x := range rs {
			b, err := checkedBand(x.Mbps, x.P10, x.Mbps, x.P90)
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
			out[i] = b
		}
		return out, nil
	case kindJSON:
		var js []jsonBand
		if err := json.Unmarshal(body, &js); err != nil {
			return nil, err
		}
		if len(js) != len(r.rows) {
			return nil, fmt.Errorf("%d rows for %d queries", len(js), len(r.rows))
		}
		out := make([]band, len(js))
		for i, j := range js {
			b, err := j.band()
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
			out[i] = b
		}
		return out, nil
	case kindIngest:
		var res ingest.BatchResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, err
		}
		if res.Accepted+res.Rejected+res.Dropped != len(r.rows) {
			return nil, fmt.Errorf("ingest accounted %d of %d samples", res.Accepted+res.Rejected+res.Dropped, len(r.rows))
		}
		if res.Dropped > 0 {
			return nil, fmt.Errorf("ingest shed %d samples", res.Dropped)
		}
		return nil, nil
	}
	return nil, fmt.Errorf("unknown request kind %d", r.kind)
}

// tally counts requests and the rows they answered.
type tally struct {
	attempted, failed, rows int
	firstErr                error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.rows += o.rows
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) record(r *request, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	if r.kind != kindIngest {
		t.rows += len(r.rows)
	}
}

// load is the outcome of closed-loop phases.
type load struct {
	tally
	lat     []float64 // per request, seconds; failures count as +Inf
	elapsed float64   // seconds
}

func (l *load) merge(o load) {
	l.tally.add(o.tally)
	l.lat = append(l.lat, o.lat...)
	l.elapsed += o.elapsed
}

// closedLoop drives reqs round-robin from index start with `clients`
// callers until dur has passed, and returns where the shared cursor
// stopped. The phase ends when the last caller's last answer arrives.
func closedLoop(c *http.Client, base string, reqs []*request, start int, dur time.Duration) (load, int) {
	var cursor atomic.Int64
	cursor.Store(int64(start))
	var mu sync.Mutex
	var out load
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine load
			var buf bytes.Buffer
			for time.Since(t0) < dur {
				r := reqs[int(cursor.Add(1)-1)%len(reqs)]
				ts := time.Now()
				status, ct, err := roundTrip(c, base, r, &buf)
				lat := time.Since(ts).Seconds()
				if err == nil {
					_, err = check(r, status, ct, buf.Bytes())
				}
				if err != nil {
					lat = math.Inf(1)
				}
				mine.record(r, err)
				mine.lat = append(mine.lat, lat)
			}
			mu.Lock()
			out.merge(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(t0).Seconds()
	return out, int(cursor.Load()) % len(reqs)
}

// answer is one scored response.
type answer struct {
	body  []byte
	bands []band
}

// onePass sends every request exactly once and keeps each checked
// answer at its request's index; failed requests leave a nil answer.
// Each lane is a list of request indices one caller sends in order, and
// the lanes run concurrently; nil lanes deal the requests round-robin
// to `clients` callers.
func onePass(c *http.Client, base string, reqs []*request, lanes [][]int) ([]answer, tally) {
	if lanes == nil {
		lanes = make([][]int, clients)
		for i := range reqs {
			lanes[i%clients] = append(lanes[i%clients], i)
		}
	}
	answers := make([]answer, len(reqs))
	var mu sync.Mutex
	var total tally
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			var mine tally
			var buf bytes.Buffer
			for _, i := range lane {
				r := reqs[i]
				status, ct, err := roundTrip(c, base, r, &buf)
				var bands []band
				if err == nil {
					bands, err = check(r, status, ct, buf.Bytes())
				}
				mine.record(r, err)
				if err == nil {
					answers[i] = answer{body: bytes.Clone(buf.Bytes()), bands: bands}
				}
			}
			mu.Lock()
			total.add(mine)
			mu.Unlock()
		}(lane)
	}
	wg.Wait()
	return answers, total
}

// sequential sends reqs one at a time, in order (ingest, whose gate is
// order-dependent).
func sequential(c *http.Client, base string, reqs []*request) tally {
	var t tally
	var buf bytes.Buffer
	for _, r := range reqs {
		status, ct, err := roundTrip(c, base, r, &buf)
		if err == nil {
			_, err = check(r, status, ct, buf.Bytes())
		}
		t.record(r, err)
	}
	return t
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * clients,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}
