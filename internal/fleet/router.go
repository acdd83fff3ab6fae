package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lumos5g/internal/engine"
	"lumos5g/internal/obs"
	"lumos5g/internal/wire"
)

// Router is the fleet's front door. It owns no model and no map — it
// quantizes each query to its partition key, picks the owning shard by
// rendezvous hash, and plays the availability game: hedging stalled
// attempts, breaking circuits on failing replicas, failing single
// predictions over across replicas and shards, and marking — never
// hiding — the holes a dead shard leaves in fan-out answers.
type Router struct {
	cfg    RouterConfig
	client *http.Client
	m      *routerMetrics

	topo atomic.Pointer[Topology]
	pb   *prober
	jit  *jitter

	mux *http.ServeMux

	closeOnce sync.Once
}

// RouterConfig tunes the router's failure handling. Zero values select
// the documented defaults.
type RouterConfig struct {
	// HedgeDelay is how long the router waits on an attempt before
	// launching a concurrent hedge at the next candidate (default 50ms).
	HedgeDelay time.Duration
	// AttemptTimeout bounds one replica attempt end-to-end (default 2s).
	AttemptTimeout time.Duration
	// RetryBase/RetryMax bound the jittered exponential backoff between
	// failure-triggered retries (defaults 5ms / 250ms). Jitter draws the
	// actual delay uniformly from [0.5, 1.5) × the current backoff.
	RetryBase time.Duration
	RetryMax  time.Duration
	// ProbeInterval is the health-prober poll period (default 250ms).
	ProbeInterval time.Duration
}

func (c *RouterConfig) fill() {
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 50 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
}

// NewRouter builds a router over the given topology and starts its
// health prober. The router owns its pooled HTTP client (replica
// traffic and probes); call Close to stop the prober and release the
// client's idle connections.
func NewRouter(topo *Topology, cfg RouterConfig) *Router {
	cfg.fill()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
	}}
	// Any fixed seed: jitter needs spread, not secrecy.
	rt := &Router{cfg: cfg, client: client, jit: newJitter(0x10_5106), mux: http.NewServeMux()}
	rt.topo.Store(topo)
	rt.m = newRouterMetrics(rt)
	rt.mux.HandleFunc("/predict", rt.handlePredict)
	rt.mux.HandleFunc("/predict/batch", rt.handleBatch)
	rt.mux.HandleFunc("/ingest", rt.handleIngest)
	rt.mux.HandleFunc("/cells.json", rt.handleCells)
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.pb = startProber(rt.Topology, rt.client, cfg.ProbeInterval, func(r *Replica, ok bool) {
		if !ok {
			rt.m.probeFails.Inc()
		}
	})
	return rt
}

// Close stops the health prober (joining its goroutine), then closes
// the client's idle connections, so replicas shutting down next do not
// wait out net/http's grace period for router connections that never
// carried a request. The router keeps serving with its last-known
// replica states, on fresh connections.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		rt.pb.stop()
		rt.client.CloseIdleConnections()
	})
}

// Topology returns the current membership generation.
func (rt *Router) Topology() *Topology { return rt.topo.Load() }

// SetTopology atomically installs a new membership generation.
// In-flight requests finish against the generation they started with;
// reuse Shard/Replica pointers for surviving members so their health
// and breaker state carry over.
func (rt *Router) SetTopology(t *Topology) { rt.topo.Store(t) }

// Metrics returns the router's own registry (fleet_* instruments).
func (rt *Router) Metrics() *obs.Registry { return rt.m.reg }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.URL.Path
	switch route {
	case "/predict", "/predict/batch", "/ingest", "/cells.json", "/healthz", "/metrics":
	default:
		route = "other"
	}
	sw := &codeWriter{ResponseWriter: w}
	start := time.Now()
	rt.mux.ServeHTTP(sw, r)
	rt.m.requests.With(route, strconv.Itoa(sw.status())).Inc()
	rt.m.latency.With(route).Observe(time.Since(start).Seconds())
}

// codeWriter captures the status the handler sent.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *codeWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// candidate is one (shard, replica) routing choice.
type candidate struct {
	shard *Shard
	rep   *Replica
}

// predictCandidates flattens the failover order for one key: the owning
// shard's replicas first (best replica first), then each fallback
// shard's. A query only leaves its owner shard when every replica there
// has failed — cross-shard answers are degraded (the fallback shard
// lacks the cell's map slice) but they are answers.
func (rt *Router) predictCandidates(k engine.Key) []candidate {
	topo := rt.Topology()
	if topo == nil {
		return nil
	}
	var cands []candidate
	for _, sh := range topo.RankShards(k) {
		for _, rep := range sh.candidates() {
			cands = append(cands, candidate{shard: sh, rep: rep})
		}
	}
	return cands
}

// call is one replica request, sent unchanged to every candidate a
// walk tries: a GET of target when body is nil, else a POST of body as
// contentType. accept, when set, asks the replica for that encoding.
type call struct {
	target      string // path, then "?" and the raw query if there is one
	body        []byte
	contentType string
	accept      string
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	cand       candidate
	status     int
	body       []byte
	header     http.Header
	retryAfter bool
	err        error
}

// ok reports a servable success.
func (a attemptResult) ok() bool { return a.err == nil && a.status == http.StatusOK }

// backpressure reports an explicit queue-full answer (429 +
// Retry-After): a healthy replica with no room, whose siblings may
// still have some.
func (a attemptResult) backpressure() bool {
	return a.err == nil && a.status == http.StatusTooManyRequests && a.retryAfter
}

// definitive reports a client-error answer that every replica would
// repeat (4xx other than backpressure): retrying elsewhere cannot
// change it, forward as-is.
func (a attemptResult) definitive() bool {
	return a.err == nil && a.status >= 400 && a.status < 500 && !a.backpressure()
}

// attempt sends cl to one replica, feeding its breaker and (on
// transport failure) its state, and counts the outcome.
func (rt *Router) attempt(ctx context.Context, c candidate, cl call) attemptResult {
	res, sent := rt.send(ctx, c, cl)
	switch {
	case !sent:
		// The request could not be built: nothing reached the replica.
	case res.status == 0:
		// Transport failure: the replica is unreachable or stalled. Mark
		// it down now instead of waiting a probe period; the prober
		// promotes it back the moment it answers a /healthz.
		c.rep.bk.failure()
		c.rep.setState(StateDown)
		rt.m.attempts.With("error").Inc()
	case res.err != nil:
		// The answer broke off mid-body.
		c.rep.bk.failure()
		rt.m.attempts.With("error").Inc()
	case res.ok(), res.definitive(), res.backpressure():
		// An answer, a client error or a full queue: the replica works.
		c.rep.bk.success()
		rt.m.attempts.With("success").Inc()
	case res.status == http.StatusServiceUnavailable && res.retryAfter:
		// A shed is backpressure, not brokenness: retry elsewhere but do
		// not poison the breaker — the replica is alive and explicit.
		rt.m.attempts.With("shed").Inc()
	default:
		c.rep.bk.failure()
		rt.m.attempts.With("error").Inc()
	}
	return res
}

// send is the one HTTP exchange with a replica, under the attempt
// timeout. It touches no routing state: attempt adds the accounting,
// and the /metrics rollup, which only observes the fleet, sends alone.
// sent reports that the request was built and went out; a sent result
// without a status is a transport failure.
func (rt *Router) send(ctx context.Context, c candidate, cl call) (res attemptResult, sent bool) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	method, body := http.MethodGet, io.Reader(nil)
	if cl.body != nil {
		method, body = http.MethodPost, bytes.NewReader(cl.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.rep.URL+cl.target, body)
	if err != nil {
		return attemptResult{cand: c, err: err}, false
	}
	if cl.contentType != "" {
		req.Header.Set("Content-Type", cl.contentType)
	}
	if cl.accept != "" {
		req.Header.Set("Accept", cl.accept)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return attemptResult{cand: c, err: err}, true
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		// The answer broke off mid-body: keep only its status, which
		// tells attempt that the replica did answer.
		return attemptResult{cand: c, status: resp.StatusCode, err: err}, true
	}
	return attemptResult{cand: c, status: resp.StatusCode, body: b, header: resp.Header,
		retryAfter: resp.Header.Get("Retry-After") != ""}, true
}

// handlePredict is the single-query route: parse and validate exactly
// as a replica does (wire.ParsePredict), quantize, then run the hedged
// failover loop over the candidate list until someone answers. The
// design goal is zero client-visible failures while any replica
// anywhere can still serve.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		wire.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	pt, err := wire.ParsePredict(r.URL.RawQuery)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	q := pt.Query()
	key := RouteKey(q.Lat, q.Lon, q.Speed, q.Bearing)
	cands := rt.predictCandidates(key)
	if len(cands) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no shards in topology")
		return
	}
	// ParsePredict requires lat, so RawQuery is not empty.
	rt.hedgedGET(w, r, cands, call{target: "/predict?" + r.URL.RawQuery})
}

// hedgedGET is the failover engine of /predict: it walks the
// candidate list launching attempts — the next one fires early when the
// current one stalls past HedgeDelay (hedge), immediately-ish after a
// failure (retry, behind capped jittered backoff) — and forwards the
// first success. A definitive 4xx forwards too: it is the same answer
// everywhere. Only when every candidate has failed does the client see
// a 503, with Retry-After when the fleet was shedding rather than dead.
func (rt *Router) hedgedGET(w http.ResponseWriter, r *http.Request, cands []candidate, cl call) {
	ctx := r.Context()
	results := make(chan attemptResult, len(cands))
	next, inFlight := 0, 0
	launch := func() bool {
		if next >= len(cands) {
			return false
		}
		c := cands[next]
		next++
		inFlight++
		go func() { results <- rt.attempt(ctx, c, cl) }()
		return true
	}
	launch()

	hedge := time.NewTimer(rt.cfg.HedgeDelay)
	defer hedge.Stop()
	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()
	var retryC <-chan time.Time
	bo := newBackoff(rt.jit, rt.cfg.RetryBase, rt.cfg.RetryMax)
	sawShed := false

	for {
		select {
		case <-ctx.Done():
			wire.WriteError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		case <-hedge.C:
			if launch() {
				rt.m.hedges.Inc()
				hedge.Reset(rt.cfg.HedgeDelay)
			}
		case <-retryC:
			retryC = nil
			launch()
		case res := <-results:
			inFlight--
			if res.ok() {
				if res.cand.rep != cands[0].rep {
					rt.m.failovers.Inc()
				}
				w.Header().Set("X-Fleet-Shard", res.cand.shard.ID)
				w.Header().Set("X-Fleet-Replica", res.cand.rep.ID)
				wire.WriteJSONBytes(w, http.StatusOK, res.body)
				return
			}
			if res.definitive() {
				if ct := res.header.Get("Content-Type"); ct != "" {
					w.Header().Set("Content-Type", ct)
				}
				w.WriteHeader(res.status)
				_, _ = w.Write(res.body)
				return
			}
			if res.retryAfter {
				sawShed = true
			}
			if next < len(cands) {
				if retryC == nil {
					retryTimer = time.NewTimer(bo.next())
					retryC = retryTimer.C
				}
			} else if inFlight == 0 {
				if sawShed {
					w.Header().Set("Retry-After", "1")
				}
				wire.WriteError(w, http.StatusServiceUnavailable, "no replica could serve the query")
				return
			}
		}
	}
}
