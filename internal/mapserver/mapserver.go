// Package mapserver exposes a 5G throughput map and its companion ML
// model over HTTP — the service side of the paper's Fig 4 scenario, where
// "UEs automatically download 5G throughput maps with ML models based on
// their geographic locations" (§2.3), and of the user-carrier
// collaborative platform of §8.2.
//
// Routes:
//
//	GET /healthz          liveness probe (tier shape, reload health)
//	GET /map.svg          the Fig 3c heatmap as SVG
//	GET /cells.json       per-cell statistics as JSON
//	GET /model            the downloadable model artifact (chain bundle)
//	GET /predict?lat=..&lon=..[&speed=..&bearing=..]
//	                      server-side throughput prediction as JSON
//	POST /predict/batch   many predictions in one round trip: a JSON
//	                      array of {lat, lon[, speed][, bearing]} in,
//	                      an array of prediction objects out
//
// Prediction is served through a lumos5g.FallbackChain and degrades
// instead of failing: queries missing speed/bearing fall to smaller
// feature tiers, and a server with no model at all answers from the
// throughput map itself (cell mean, then map-wide mean). Responses carry
// the serving tier so clients can weigh the estimate. The model can be
// hot-swapped under load (SetChain / ReloadModelFile / WatchModelFile);
// corrupt or truncated artifacts are rejected while the previous model
// keeps serving.
//
// Every route runs behind panic-recovery, request-timeout, method and
// request-size middleware; errors are structured JSON ({"error": ...}).
package mapserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"lumos5g"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/ingest"
	"lumos5g/internal/wire"
)

// Server bundles the published artifacts.
type Server struct {
	mux *http.ServeMux
	h   http.Handler // mux wrapped in the hardening middleware

	// mu guards the live model generation (which also holds the
	// published map and its prior), its prediction cache and reload
	// bookkeeping. Prediction takes the read lock; hot swaps take
	// the write lock, so a reload is atomic with respect to every
	// in-flight query — and because the cache is replaced in the same
	// critical section as the engine generation, a swapped-out model's
	// cached answers can never be served after the swap.
	mu        sync.RWMutex
	eng       *engine.Engine // immutable per generation; never nil
	cache     *predCache     // nil when caching is disabled or no model serves
	reloadErr string         // last rejected reload ("" when healthy)

	cacheSize int // entries per cache generation (0 = disabled)

	// m owns every serving counter (the single-bookkeeping rule:
	// /healthz reads these same instruments back; see metrics.go).
	m *serverMetrics

	// ing is the optional streaming-ingest pipeline behind POST
	// /ingest (see ingest.go); nil until AttachIngestor.
	ing ingPtr

	// Structured request logging (nil = disabled). logmu serialises
	// concurrent log lines onto logw.
	logw  io.Writer
	logmu sync.Mutex
}

// Option tunes the server's hardening envelope.
type Option func(*options)

type options struct {
	timeout      time.Duration
	cacheSize    int
	metricsRoute bool
	requestLog   io.Writer
	maxInFlight  int
}

// WithRequestTimeout bounds each request's handler time (default 10 s).
func WithRequestTimeout(d time.Duration) Option {
	return func(o *options) { o.timeout = d }
}

// WithPredictCacheSize sets the /predict cache capacity in quantized-key
// entries (default 4096). n <= 0 disables the cache: every query walks
// the model.
func WithPredictCacheSize(n int) Option {
	return func(o *options) { o.cacheSize = n }
}

// WithMetricsRoute controls whether GET /metrics is mounted (default
// on). The registry is always live — /healthz reads it — this only
// gates the Prometheus exposition route.
func WithMetricsRoute(on bool) Option {
	return func(o *options) { o.metricsRoute = on }
}

// WithRequestLog enables structured request logging: one JSON line per
// request on w, carrying the request ID also returned to the client in
// X-Request-Id. Lines are serialised; w need not be safe for concurrent
// use.
func WithRequestLog(w io.Writer) Option {
	return func(o *options) { o.requestLog = w }
}

// WithMaxInFlight bounds concurrently served work requests (everything
// except /healthz and /metrics, which probes must always reach). Above
// the bound the server sheds: 503 with a Retry-After header and a
// lumos_shed_total increment, so upstream retries back off instead of
// dogpiling a slow server. n <= 0 disables shedding (the default).
func WithMaxInFlight(n int) Option {
	return func(o *options) { o.maxInFlight = n }
}

// defaultPredictCacheSize is roughly a 4 km² area at 2 m cells under a
// handful of speed/bearing buckets — ample for one map's hot set.
const defaultPredictCacheSize = 4096

// New creates a handler for the given map and (optionally nil) predictor.
// The predictor is wrapped into a single-tier fallback chain whose
// last-resort prior is the map-wide mean. Without a predictor the server
// runs degraded: /model returns 404 and /predict answers from the map.
// A non-nil predictor must use the L or L+M feature group: those are the
// only groups whose features a bare /predict query can supply.
func New(tm *lumos5g.ThroughputMap, pred *lumos5g.Predictor, opts ...Option) (*Server, error) {
	if pred == nil {
		return NewWithChain(tm, nil, opts...)
	}
	if g := pred.Group(); g != lumos5g.GroupL && g != lumos5g.GroupLM {
		return nil, fmt.Errorf("mapserver: /predict supports L or L+M predictors, not %s", g)
	}
	s, err := NewWithChain(tm, nil, opts...)
	if err != nil {
		return nil, err
	}
	chain, err := lumos5g.ChainFromPredictor(pred, s.Engine().MapPrior())
	if err != nil {
		return nil, err
	}
	s.SetChain(chain)
	return s, nil
}

// NewWithChain creates a handler serving predictions through the given
// fallback chain (nil for a model-less, map-only degraded server). Tiers
// whose features a /predict query cannot supply simply never serve; they
// still back /model downloads.
func NewWithChain(tm *lumos5g.ThroughputMap, chain *lumos5g.FallbackChain, opts ...Option) (*Server, error) {
	eng, err := engine.New(tm, chain)
	if err != nil {
		return nil, fmt.Errorf("mapserver: %w", err)
	}
	o := options{timeout: 10 * time.Second, cacheSize: defaultPredictCacheSize, metricsRoute: true}
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{mux: http.NewServeMux(), eng: eng, cacheSize: o.cacheSize, logw: o.requestLog}
	s.m = newServerMetrics(s)
	if chain != nil {
		s.cache = s.newCache()
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/map.svg", s.handleSVG)
	s.mux.HandleFunc("/cells.json", s.handleCells)
	s.mux.HandleFunc("/model", s.handleModel)
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/predict/batch", s.handlePredictBatch)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	if o.metricsRoute {
		s.mux.HandleFunc("/metrics", s.handleMetrics)
	}
	// withObs sits outermost so it observes the final status of every
	// request, including the 503s the shed gate and timeout layers
	// manufacture. Shedding comes right after: a shed request must cost
	// nothing but the counter bump, and probes (/healthz, /metrics) are
	// exempt so a saturated server still reports its own saturation.
	// Recovery comes next: http.TimeoutHandler re-raises handler panics
	// on the caller goroutine, so the recover catches both direct and
	// timed-out panics.
	postPaths := map[string]bool{"/predict/batch": true, "/ingest": true}
	h := withRecovery(withTimeout(withMethodPolicy(withMaxBytes(s.mux), postPaths), o.timeout))
	h = withShed(h, o.maxInFlight, shedExempt, s.m.shed.Inc)
	s.h = s.withObs(h)
	return s, nil
}

// newCache builds one cache generation wired to the server's counters.
func (s *Server) newCache() *predCache {
	return newPredCache(s.cacheSize, s.m.cacheEvictions.Inc, s.m.cacheAbandoned.Inc)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.ServeHTTP(w, r)
}

// Chain returns the currently serving fallback chain (nil when the
// server is model-less).
func (s *Server) Chain() *lumos5g.FallbackChain {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.Chain()
}

// Engine returns the currently serving model generation — the
// transport-agnostic core the HTTP layer wraps.
func (s *Server) Engine() *engine.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng
}

// SetChain atomically swaps the serving model. In-flight queries finish
// on the old generation; subsequent ones use the new. The prediction
// cache is replaced with a fresh one in the same critical section, so no
// answer computed by the old model outlives the swap. A successful
// manual swap clears any recorded reload failure.
func (s *Server) SetChain(c *lumos5g.FallbackChain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng = s.eng.WithChain(c)
	s.cache = nil
	if c != nil {
		s.cache = s.newCache()
	}
	s.reloadErr = ""
}

// ReloadModelFile loads a model artifact (chain bundle or single
// predictor) from path and swaps it in atomically. A damaged artifact is
// rejected — the error is recorded for /healthz and the previous model
// keeps serving.
func (s *Server) ReloadModelFile(path string) error {
	chain, err := lumos5g.LoadAnyModelFile(path, s.Engine().MapPrior())
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.m.reloadsRejected.Inc()
		s.reloadErr = err.Error()
		return fmt.Errorf("mapserver: reload %s rejected (model kept): %w", path, err)
	}
	s.eng = s.eng.WithChain(chain)
	s.cache = s.newCache()
	s.m.reloads.Inc()
	s.reloadErr = ""
	return nil
}

// healthJSON is the /healthz wire form. Degraded means the service is up
// but not serving with a fully healthy model: it has no model at all, or
// the newest artifact was rejected and an older model is serving.
type healthJSON struct {
	OK              bool     `json:"ok"`
	Degraded        bool     `json:"degraded"`
	Cells           int      `json:"cells"`
	Model           bool     `json:"model"`
	Tiers           []string `json:"tiers,omitempty"`
	TiersServed     []uint64 `json:"tiers_served,omitempty"`
	Reloads         uint64   `json:"reloads"`
	Rejected        uint64   `json:"rejected"`
	LastReloadError string   `json:"last_reload_error,omitempty"`
	// Prediction-cache health. tiers_served counts published model
	// walks only; successful /predict responses
	// = sum(tiers_served) + cache_hits + cache_uncached.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheUncached  uint64 `json:"cache_uncached"`
	CacheEntries   int    `json:"cache_entries"`
	// Ingest is the streaming-ingest pipeline's health (nil when no
	// ingestor is attached): gate/queue/refit counters read from the
	// same instruments /metrics renders.
	Ingest *ingest.Health `json:"ingest,omitempty"`
}

// handleHealth reports serving health. Every number here is read back
// from the same obs instruments /metrics renders — there is no second
// bookkeeping path to drift from the exposition.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	eng, cache, reloadErr := s.eng, s.cache, s.reloadErr
	s.mu.RUnlock()
	chain := eng.Chain()
	m := s.m
	h := healthJSON{
		OK:              true,
		Degraded:        chain == nil || reloadErr != "",
		Cells:           len(eng.Map().Cells),
		Model:           chain != nil,
		Reloads:         m.reloads.Value(),
		Rejected:        m.reloadsRejected.Value(),
		LastReloadError: reloadErr,
		CacheHits:       m.cacheHits.Value(),
		CacheMisses:     m.cacheMisses.Value(),
		CacheEvictions:  m.cacheEvictions.Value(),
		CacheUncached:   m.cacheUncached.Value(),
	}
	if cache != nil {
		h.CacheEntries = cache.size()
	}
	h.Ingest = s.ingestHealth()
	if chain != nil {
		h.Tiers = chain.TierNames()
		h.TiersServed = make([]uint64, len(h.Tiers))
		for i, name := range h.Tiers {
			h.TiersServed[i] = m.tierServed.Total(map[string]string{"tier": name})
		}
	}
	wire.WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleSVG(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(s.Engine().Map().RenderSVG(6)))
}

// cellJSON is the wire form of one map cell.
type cellJSON struct {
	Col        int     `json:"col"`
	Row        int     `json:"row"`
	MeanMbps   float64 `json:"mean_mbps"`
	MedianMbps float64 `json:"median_mbps"`
	CV         float64 `json:"cv"`
	N          int     `json:"n"`
	NRFraction float64 `json:"nr_fraction"`
}

func (s *Server) handleCells(w http.ResponseWriter, _ *http.Request) {
	cells := s.Engine().Map().SortedCells()
	out := make([]cellJSON, len(cells))
	for i, c := range cells {
		out[i] = cellJSON{
			Col: c.Key.Col, Row: c.Key.Row,
			MeanMbps: c.MeanMbps, MedianMbps: c.MedianMbps,
			CV: c.CV, N: c.N, NRFraction: c.NRFraction,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	chain := s.Chain()
	if chain == nil {
		wire.WriteError(w, http.StatusNotFound, "no model published")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="lumos5g-chain.l5g"`)
	if err := chain.Save(w); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

// predictCall is the pooled per-request scratch of handlePredict: it
// carries the parsed query into the cache's compute seam as an
// interface, so the hot path allocates neither a closure nor the
// escaped *float64 optionals (q points into the pooled pt, which is
// already heap-stable).
type predictCall struct {
	s   *Server
	eng *engine.Engine
	px  geo.Pixel
	pt  wire.Point
	q   wire.Query
}

var predictCallPool = sync.Pool{New: func() any { return new(predictCall) }}

// computePredict implements the cache's computer seam: one engine
// answer. A model walk (Tier >= 0) is observed into the tier-latency
// histogram; a map-only answer is not. The answer carries the band, so a
// single cache entry serves both negotiations.
func (pc *predictCall) computePredict() wire.Result {
	start := time.Now()
	res := pc.eng.PredictInterval(pc.px, pc.q.Speed, pc.q.Bearing)
	if res.Tier >= 0 {
		pc.s.m.tierLatency.With(res.Source).Observe(time.Since(start).Seconds())
	}
	return res
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	pt, err := wire.ParsePredict(r.URL.RawQuery)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	pc := predictCallPool.Get().(*predictCall)
	defer predictCallPool.Put(pc)
	pc.s = s
	pc.pt = pt
	pc.q = pc.pt.Query()
	pc.px = geo.Pixelize(geo.LatLon{Lat: pt.Lat, Lon: pt.Lon}, geo.DefaultZoom)

	// One read of the (engine, cache) pair: a hot swap replaces both
	// under the write lock, so a request never mixes an old cache with a
	// new model. A request that raced a swap finishes on the pair it saw
	// — the old cache is unreachable afterwards, so its answers die with
	// it.
	s.mu.RLock()
	pc.eng = s.eng
	cache := s.cache
	s.mu.RUnlock()
	const route = "/predict"
	// A model-less server has no cache (only a chain gets one), so its
	// map-only answers take this uncached branch too.
	if cache == nil {
		res := pc.computePredict()
		body := marshalPredict(res, pt.Intervals)
		if body == nil {
			s.m.nonFinite.Inc()
			wire.WriteError(w, http.StatusInternalServerError, "prediction is not finite")
			return
		}
		s.m.tierServed.With(route, res.Source).Inc()
		annotatePredict(r.Context(), res.Tier, res.Source, "off")
		wire.WriteJSONBytes(w, http.StatusOK, body)
		return
	}
	res, body, outcome := cache.run(quantizeKey(pc.px, pc.q.Speed, pc.q.Bearing), pc, pt.Intervals)
	if outcome == outcomeInvalid || body == nil {
		s.m.nonFinite.Inc()
		wire.WriteError(w, http.StatusInternalServerError, "prediction is not finite")
		return
	}
	// The handler owns the counting identity: a 200 is exactly one of a
	// published model walk (miss), a hit, or an uncached recompute.
	switch outcome {
	case outcomeHit:
		s.m.cacheHits.Inc()
	case outcomeMiss:
		s.m.cacheMisses.Inc()
		s.m.tierServed.With(route, res.Source).Inc()
	case outcomeUncached:
		s.m.cacheUncached.Inc()
	}
	annotatePredict(r.Context(), res.Tier, res.Source, outcome.String())
	wire.WriteJSONBytes(w, http.StatusOK, body)
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	queries, err := wire.DecodeBatch(r.Header.Get("Content-Type"), r.Body)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	pxs := make([]geo.Pixel, len(queries))
	speeds := make([]*float64, len(queries))
	bearings := make([]*float64, len(queries))
	for i, q := range queries {
		pxs[i] = geo.Pixelize(geo.LatLon{Lat: q.Lat, Lon: q.Lon}, geo.DefaultZoom)
		speeds[i], bearings[i] = q.Speed, q.Bearing
	}
	preds := s.Engine().PredictIntervalBatch(pxs, speeds, bearings)
	s.finishBatch(w, preds, wire.Negotiate(r.Header.Get("Accept"), r.URL.RawQuery))
}

// finishBatch validates and publishes one batch answer in the
// negotiated form. Every row must be finite (wire.Result.Finite, the
// rule /predict applies) whichever form was negotiated. Per-query tier
// counters are incremented only once the whole batch is known to be
// servable, so counters never include predictions that were never sent.
func (s *Server) finishBatch(w http.ResponseWriter, preds []wire.Result, form wire.Form) {
	for i := range preds {
		if !preds[i].Finite() {
			s.m.nonFinite.Inc()
			wire.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("query %d: prediction is not finite", i))
			return
		}
	}
	s.countServed(preds)
	if form.Binary {
		bufp := batchBufPool.Get().(*[]byte)
		b, err := form.AppendFrame((*bufp)[:0], preds)
		if err != nil {
			batchBufPool.Put(bufp)
			wire.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		ct := wireCT
		if form.Intervals {
			ct = wireIvalCT
		}
		w.Header()["Content-Type"] = ct
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
		*bufp = b[:0]
		batchBufPool.Put(bufp)
		return
	}
	// Render the array with the hand-rolled encoder — byte-identical to
	// encoding/json (see encode.go) — through a pooled buffer.
	bufp := batchBufPool.Get().(*[]byte)
	b := append((*bufp)[:0], '[')
	for i := range preds {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPredict(b, preds[i], form.Intervals)
	}
	b = append(b, ']', '\n')
	wire.WriteJSONBytes(w, http.StatusOK, b)
	*bufp = b[:0]
	batchBufPool.Put(bufp)
}

// countServed adds one batch to the per-tier served counters: one
// counter lookup and one Add per distinct source, not per row.
func (s *Server) countServed(preds []wire.Result) {
	type tally struct {
		source string
		n      uint64
	}
	var buf [8]tally
	seen := buf[:0]
next:
	for i := range preds {
		src := preds[i].Source
		for k := range seen {
			if seen[k].source == src {
				seen[k].n++
				continue next
			}
		}
		seen = append(seen, tally{source: src, n: 1})
	}
	for _, t := range seen {
		s.m.tierServed.With("/predict/batch", t.source).Add(t.n)
	}
}

// wireCT / wireIvalCT are the shared Content-Type header values of
// binary batch responses (see wire.SetJSONType for why they are shared
// slices).
var (
	wireCT     = []string{wire.ContentType}
	wireIvalCT = []string{wire.ContentTypeIntervals}
)
