package netem

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lumos5g/internal/rng"
)

// DefaultConnections matches the paper's measurement app, which opens 8
// parallel TCP connections because one cannot saturate the 5G downlink.
const DefaultConnections = 8

// Client performs bulk-download throughput measurements. The campaign's
// outage seconds are data, not errors (the paper records 0 Mbps rows
// through dead zones and handoffs), so after the initial dial round the
// client never aborts a measurement: each connection is supervised and
// reconnects with capped exponential backoff + jitter, and every sample
// interval produces a value even when the link is fully down.
type Client struct {
	// Connections is the parallel TCP connection count. <=0 means 8.
	Connections int
	// SampleInterval is the reporting granularity. <=0 means 1 s; tests
	// shorten it so they stay fast.
	SampleInterval time.Duration
	// BackoffBase is the first reconnect delay (<=0 means 25 ms). Each
	// failed attempt doubles it up to BackoffMax (<=0 means 1 s), with
	// ±50% deterministic jitter drawn from Seed.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StallTimeout is the per-read deadline: a connection that delivers
	// no bytes for this long is treated as stalled and re-dialed.
	// <=0 means 4× SampleInterval.
	StallTimeout time.Duration
	// Seed makes the backoff jitter deterministic (0 means 1).
	Seed uint64
}

// dialTimeout bounds one TCP connection attempt.
const dialTimeout = 2 * time.Second

// ConnStats is one connection slot's lifetime over a measurement.
type ConnStats struct {
	Dials      int      // successful dials (1 = never reconnected)
	Retries    int      // reconnect attempts after the initial dial round
	DialErrors int      // failed dial attempts
	ReadErrors int      // read failures (reset, EOF, refused mid-run)
	Stalls     int      // per-read deadline expiries treated as stalls
	Errors     []string // bounded history of errors observed, in order
}

// maxErrHistory bounds the per-connection error log.
const maxErrHistory = 8

func (st *ConnStats) note(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	if n := len(st.Errors); n > 0 && st.Errors[n-1] == msg {
		return // collapse repeats of the same failure
	}
	if len(st.Errors) < maxErrHistory {
		st.Errors = append(st.Errors, msg)
	}
}

// MeasureReport is the first-class result of a measurement: the paper
// keeps its zero-throughput seconds, so the report records them — plus
// the retry activity it took to keep measuring through the outages.
type MeasureReport struct {
	// Samples holds one per-interval Mbps value per requested sample
	// (shorter only when Partial).
	Samples []float64
	// Zeros counts samples during which no bytes arrived — outage
	// seconds recorded as explicit 0 Mbps data points.
	Zeros int
	// Retries is the total reconnect attempts across all connections.
	Retries int
	// DialErrors is the total failed dial attempts across connections.
	DialErrors int
	// Partial is true when the context ended before all samples were
	// collected; Samples then holds the prefix gathered so far.
	Partial bool
	// Conns has one entry per connection slot.
	Conns []ConnStats
}

func (r *MeasureReport) finalize() {
	r.Zeros = 0
	for _, v := range r.Samples {
		if v == 0 {
			r.Zeros++
		}
	}
	r.Retries, r.DialErrors = 0, 0
	for i := range r.Conns {
		r.Retries += r.Conns[i].Retries
		r.DialErrors += r.Conns[i].DialErrors
	}
}

// Measure downloads from addr over the configured number of parallel
// connections for the given number of samples, returning the per-interval
// application-layer throughput in Mbps — the exact quantity the paper
// records as ground truth every second.
//
// Mid-measurement failures (resets, stalls, server restarts) do not
// abort the run: affected connections reconnect in the background and
// intervals with no delivered bytes are recorded as 0 Mbps. Measure
// fails fast only when samples <= 0 or when *every* initial dial fails
// (no server to measure against).
//
// Partial-result contract: when ctx ends mid-measurement, Measure
// returns the samples collected so far TOGETHER WITH ctx's error. The
// prefix is valid data; callers that can use an incomplete trace should
// consume it rather than discard it.
func (c *Client) Measure(ctx context.Context, addr string, samples int) ([]float64, error) {
	rep, err := c.MeasureFull(ctx, addr, samples)
	if rep == nil {
		return nil, err
	}
	return rep.Samples, err
}

// MeasureFull is Measure with the full report: per-connection retry and
// error histories, dial failures, and the explicit zero-sample count.
// The partial-result contract matches Measure: on early cancellation the
// report carries the prefix with Partial set, alongside ctx's error.
func (c *Client) MeasureFull(ctx context.Context, addr string, samples int) (*MeasureReport, error) {
	conns := c.Connections
	if conns <= 0 {
		conns = DefaultConnections
	}
	interval := c.SampleInterval
	if interval <= 0 {
		interval = time.Second
	}
	if samples <= 0 {
		return nil, fmt.Errorf("netem: samples must be positive")
	}
	base := c.BackoffBase
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	maxBackoff := c.BackoffMax
	if maxBackoff <= 0 {
		maxBackoff = time.Second
	}
	if maxBackoff < base {
		maxBackoff = base
	}
	stall := c.StallTimeout
	if stall <= 0 {
		stall = 4 * interval
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var bytesRead int64
	rep := &MeasureReport{Conns: make([]ConnStats, conns)}

	// Initial dial round: if no connection can be established at all the
	// target is unreachable — a configuration error, not a radio outage —
	// so fail fast. Any partial success proceeds; failed slots retry in
	// their supervisors.
	initial := make([]net.Conn, conns)
	okCount := 0
	var firstErr error
	for i := 0; i < conns; i++ {
		conn, err := (&net.Dialer{Timeout: dialTimeout}).DialContext(ctx, "tcp", addr)
		if err != nil {
			rep.Conns[i].DialErrors++
			rep.Conns[i].note(err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		initial[i] = conn
		rep.Conns[i].Dials++
		okCount++
	}
	if okCount == 0 {
		return nil, fmt.Errorf("netem: dial %s: %w", addr, firstErr)
	}

	sup := superviseParams{addr: addr, base: base, max: maxBackoff, stall: stall}
	var wg sync.WaitGroup
	boxes := make([]*connBox, conns)
	root := rng.New(seed)
	for i := 0; i < conns; i++ {
		boxes[i] = &connBox{}
		src := root.SplitLabeled("conn:" + strconv.Itoa(i))
		wg.Add(1)
		go supervise(ctx, &wg, initial[i], boxes[i], &rep.Conns[i], src, &bytesRead, sup)
	}
	// Unblock pending reads promptly when the measurement window ends.
	go func() {
		<-ctx.Done()
		for _, b := range boxes {
			b.close()
		}
	}()

	out := make([]float64, 0, samples)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for len(out) < samples {
		select {
		case <-ctx.Done():
			cancel()
			wg.Wait()
			rep.Samples = out
			rep.Partial = true
			rep.finalize()
			return rep, ctx.Err()
		case <-ticker.C:
			n := atomic.SwapInt64(&bytesRead, 0)
			mbps := float64(n) * 8 / interval.Seconds() / 1e6
			out = append(out, mbps)
		}
	}
	cancel()
	wg.Wait()
	rep.Samples = out
	rep.finalize()
	return rep, nil
}

// connBox guards a supervisor's live connection so the context watcher
// can close it and unblock a pending Read.
type connBox struct {
	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// set publishes the supervisor's current connection; it returns false if
// the box was already closed (measurement over), in which case the
// caller must not keep using the connection.
func (b *connBox) set(c net.Conn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.conn = c
	return true
}

func (b *connBox) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	if b.conn != nil {
		b.conn.Close()
	}
}

type superviseParams struct {
	addr  string
	base  time.Duration
	max   time.Duration
	stall time.Duration
}

// supervise owns one connection slot: it reads until the connection
// fails or stalls past its deadline, then reconnects with capped
// exponential backoff and deterministic jitter until the measurement
// window closes. st is owned by this goroutine until wg is done.
func supervise(ctx context.Context, wg *sync.WaitGroup, conn net.Conn, box *connBox,
	st *ConnStats, src *rng.Source, bytesRead *int64, p superviseParams) {

	defer wg.Done()
	delay := p.base
	buf := make([]byte, 64*1024)
	for {
		if conn == nil {
			// Reconnect after jittered backoff. Jitter desynchronises the
			// 8 streams so a recovering link is not hammered in lockstep.
			if !sleepCtx(ctx, time.Duration(src.Range(0.5, 1.5)*float64(delay))) {
				return
			}
			if delay *= 2; delay > p.max {
				delay = p.max
			}
			st.Retries++
			var err error
			conn, err = (&net.Dialer{Timeout: dialTimeout}).DialContext(ctx, "tcp", p.addr)
			if err != nil {
				st.DialErrors++
				st.note(err)
				conn = nil
				if ctx.Err() != nil {
					return
				}
				continue
			}
			st.Dials++
		}
		if !box.set(conn) {
			conn.Close()
			return
		}
		healthy := false
		for {
			_ = conn.SetReadDeadline(time.Now().Add(p.stall))
			n, err := conn.Read(buf)
			atomic.AddInt64(bytesRead, int64(n))
			if n > 0 && !healthy {
				healthy = true
				delay = p.base // data flowing again: reset the backoff
			}
			if err != nil {
				if ctx.Err() != nil {
					break // measurement over: teardown close, not a fault
				}
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					st.Stalls++
				} else {
					st.ReadErrors++
				}
				st.note(err)
				break
			}
		}
		box.set(nil)
		conn.Close()
		conn = nil
		if ctx.Err() != nil {
			return
		}
	}
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// MeasureOnce is a convenience wrapper returning the mean throughput over
// the given number of samples. Under the partial-result contract it
// averages whatever prefix was collected before cancellation and returns
// that mean alongside the error, so interrupted runs keep their data.
func (c *Client) MeasureOnce(ctx context.Context, addr string, samples int) (float64, error) {
	vals, err := c.Measure(ctx, addr, samples)
	if len(vals) == 0 {
		if err == nil {
			err = fmt.Errorf("netem: no samples collected")
		}
		return 0, err
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals)), err
}
