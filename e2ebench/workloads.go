package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"lumos5g"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/obs"
	"lumos5g/internal/wire"
)

// Traced replay sample sizes: a fixed run of the workload's own
// requests, replayed one at a time. ueWalkLadder stays below one
// mapserver cache generation (4096 keys), so the in-memory server's
// cache hits exactly the keys the sample repeats.
const (
	ueWalkLadder   = 3000
	batchLadder    = 96
	outageLadder   = 96
	ingestLadder   = 16
	ladderBaseURL  = "http://bench.invalid"
	cacheHitsTotal = "lumos_predict_cache_hits_total"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func (c runConfig) dur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// parity records the scoring pass's comparison against an in-memory
// mapserver over the same chain.
type parity struct {
	Checked    int    `json:"checked"`
	Mismatched int    `json:"mismatched"`
	First      string `json:"first_mismatch,omitempty"`
}

func (p *parity) note(ok bool, format string, args ...any) {
	p.Checked++
	if !ok {
		p.Mismatched++
		if p.First == "" {
			p.First = fmt.Sprintf(format, args...)
		}
	}
}

// roundDiag is one outage_refit round: forward quality of the segment's
// forecasts, then what ingest and the refit gate did with its truth.
// Holdout MAEs are null where the refit never reached the gate.
type roundDiag struct {
	Round         int      `json:"round"`
	Rows          int      `json:"rows"`
	ForecastMAE   float64  `json:"forecast_mae_mbps"`
	Coverage      float64  `json:"forecast_coverage"`
	Accepted      uint64   `json:"ingest_accepted"`
	WindowSamples int      `json:"window_samples"`
	Swapped       bool     `json:"swapped"`
	Skipped       bool     `json:"skipped"`
	Reason        string   `json:"reason,omitempty"`
	LiveMAE       *float64 `json:"live_holdout_mae_mbps"`
	CandMAE       *float64 `json:"candidate_holdout_mae_mbps"`
	IngestS       float64  `json:"ingest_s"`
	RefitS        float64  `json:"refit_s"`
}

// finite returns v, or nil when JSON cannot carry it.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// runOut is everything one workload run measured.
type runOut struct {
	model    *model
	setup    setupTimes
	timed    load
	other    tally // scoring passes, ingest posts and refits
	qual     quality
	proc     procDelta
	counters map[string]float64
	inputs   map[string]any
	rounds   []roundDiag
	learnS   float64
	parity   parity
	ladder   *ladder
	layers   map[string]float64
	spans    []span
	rssAt    map[string]float64
}

func newRunOut(m *model, st setupTimes) *runOut {
	out := &runOut{model: m, setup: st, counters: map[string]float64{}, inputs: map[string]any{}}
	out.rssAt = map[string]float64{}
	out.checkpoint("setup")
	return out
}

// checkpoint records the process's peak resident set so far, so the
// report shows which phase set peak_rss_mb.
func (o *runOut) checkpoint(phase string) { o.rssAt[phase] = peakRSSMB() }

// servedRows converts answers back to per-row bands in row order; a
// row asked about twice keeps its first answer.
func servedRows(reqs []*request, answers []answer, n int) ([]band, []bool) {
	bands := make([]band, n)
	ok := make([]bool, n)
	for i, r := range reqs {
		if answers[i].bands == nil {
			continue
		}
		for j, ri := range r.rows {
			if !ok[ri] {
				bands[ri] = answers[i].bands[j]
				ok[ri] = true
			}
		}
	}
	return bands, ok
}

// scoreRows scores the rows that were answered; a row without an answer
// is already a failed request.
func scoreRows(rows []row, idx []int, bands []band, ok []bool) quality {
	var bs []band
	var ys []float64
	for _, i := range idx {
		if ok[i] {
			bs = append(bs, bands[i])
			ys = append(ys, rows[i].truth)
		}
	}
	return scoreQuality(bs, ys)
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// serveMem answers one request in memory.
func serveMem(h http.Handler, r *request, w *memWriter) {
	w.reset()
	h.ServeHTTP(w, r.newHTTP(ladderBaseURL))
}

// traceClient times one client round trip as the replay's root span and
// checks the answer as the timed phase does.
func traceClient(tr *tracer, layer string, c *http.Client, base string, r *request, buf *bytes.Buffer, t *tally) {
	var status int
	var ct string
	var err error
	tr.call(layer, "", len(r.rows), func() { status, ct, err = roundTrip(c, base, r, buf) })
	if err == nil {
		_, err = check(r, status, ct, buf.Bytes())
	}
	t.record(r, err)
}

// traceHandler times one in-memory call of h as a span of layer.
func traceHandler(tr *tracer, layer, parent string, h http.Handler, r *request, w *memWriter) {
	hr := r.newHTTP(ladderBaseURL)
	w.reset()
	tr.call(layer, parent, len(r.rows), func() { h.ServeHTTP(w, hr) })
}

// fleetCounters reads the phase-boundary counter deltas a fleet
// exposes on /metrics (router fleet_* plus the replica lumos_* rollup).
func fleetCounters(before, after scrape) map[string]float64 {
	return map[string]float64{
		"attempts":       delta(before, after, "fleet_attempts_total"),
		"hedges":         delta(before, after, "fleet_hedges_total"),
		"failovers":      delta(before, after, "fleet_failovers_total"),
		"cache_hits":     delta(before, after, cacheHitsTotal),
		"cache_misses":   delta(before, after, "lumos_predict_cache_misses_total"),
		"cache_uncached": delta(before, after, "lumos_predict_cache_uncached_total"),
		"served_LM":      delta(before, after, "lumos_predict_tier_served_total", `tier="L+M"`),
		"served_L":       delta(before, after, "lumos_predict_tier_served_total", `tier="L"`),
		"served_all":     delta(before, after, "lumos_predict_tier_served_total"),
	}
}

// timedPhase runs one closed-loop phase with the boundary reads around
// it.
func timedPhase(c *http.Client, s *server, reqs []*request, start int, dur time.Duration,
	out *runOut) (int, error) {
	before, err := scrapeMetrics(c, s.url)
	if err != nil {
		return 0, err
	}
	runtime.GC() // start the timed phase from a collected heap
	p0 := sampleProc()
	ld, next := closedLoop(c, s.url, reqs, start, dur)
	p1 := sampleProc()
	after, err := scrapeMetrics(c, s.url)
	if err != nil {
		return 0, err
	}
	out.proc.add(p0, p1)
	out.timed.merge(ld)
	for k, v := range fleetCounters(before, after) {
		out.counters[k] += v
	}
	return next, nil
}

// chainQuery builds the fallback chain's query exactly as the engine
// does for a prediction request.
func chainQuery(px geo.Pixel, speed, bearing *float64) map[string]float64 {
	q := map[string]float64{"pixel_x": float64(px.X), "pixel_y": float64(px.Y)}
	if speed != nil {
		q["moving_speed"] = *speed
	}
	if bearing != nil {
		rad := math.Pi / 180
		q["compass_sin"] = math.Sin(*bearing * rad)
		q["compass_cos"] = math.Cos(*bearing * rad)
	}
	return q
}

func featureRow(q map[string]float64, names []string) []float64 {
	x := make([]float64, len(names))
	for j, n := range names {
		x[j] = q[n]
	}
	return x
}

func pixelOf(q wire.Query) geo.Pixel {
	return geo.Pixelize(geo.LatLon{Lat: q.Lat, Lon: q.Lon}, geo.DefaultZoom)
}

// traceBatchBelowMapserver replays one batch below the mapserver:
// engine, chain, and each serving tier's compiled predictor.
func traceBatchBelowMapserver(tr *tracer, eng *engine.Engine, chain *lumos5g.FallbackChain,
	rows []row, idx []int) []engine.Prediction {
	pxs := make([]geo.Pixel, len(idx))
	sp := make([]*float64, len(idx))
	br := make([]*float64, len(idx))
	qs := make([]map[string]float64, len(idx))
	for j, i := range idx {
		pxs[j] = pixelOf(rows[i].q)
		sp[j], br[j] = rows[i].q.Speed, rows[i].q.Bearing
		qs[j] = chainQuery(pxs[j], sp[j], br[j])
	}
	var preds []engine.Prediction
	tr.call("engine", "mapserver", len(idx), func() { preds = eng.PredictIntervalBatch(pxs, sp, br) })
	var cps []lumos5g.ChainPrediction
	tr.call("lumos5g", "engine", len(idx), func() { cps = chain.PredictIntervalBatch(qs) })
	tiers := chain.Tiers()
	for t, p := range tiers {
		names := p.FeatureNames()
		var X [][]float64
		for j, cp := range cps {
			if cp.Tier == t {
				X = append(X, featureRow(qs[j], names))
			}
		}
		if len(X) > 0 {
			tr.call("compiled", "lumos5g", len(X), func() { p.PredictBatch(X) })
		}
	}
	return preds
}

// batchAllocs counts engine allocations per row over a batch sample.
func batchAllocs(eng *engine.Engine, rows []row, reqs []*request) float64 {
	type in struct {
		pxs    []geo.Pixel
		sp, br []*float64
	}
	ins := make([]in, len(reqs))
	n := 0
	for k, r := range reqs {
		for _, i := range r.rows {
			ins[k].pxs = append(ins[k].pxs, pixelOf(rows[i].q))
			ins[k].sp = append(ins[k].sp, rows[i].q.Speed)
			ins[k].br = append(ins[k].br, rows[i].q.Bearing)
		}
		n += len(r.rows)
	}
	m := mallocsDuring(func() {
		for _, x := range ins {
			eng.PredictIntervalBatch(x.pxs, x.sp, x.br)
		}
	})
	return float64(m) / float64(n)
}

// handlerAllocs counts allocations per request of serving reqs in
// memory through h.
func handlerAllocs(h http.Handler, reqs []*request) float64 {
	hreqs := make([]*http.Request, len(reqs))
	for i, r := range reqs {
		hreqs[i] = r.newHTTP(ladderBaseURL)
	}
	w := newMemWriter()
	m := mallocsDuring(func() {
		for _, hr := range hreqs {
			w.reset()
			h.ServeHTTP(w, hr)
		}
	})
	return float64(m) / float64(len(reqs))
}

// ---- ue_walk -----------------------------------------------------------

func runUEWalk(cfg runConfig) (*runOut, error) {
	c := newClient()
	m, s, st, err := setupMedian(c, deployFleet)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newRunOut(m, st)

	hs := m.city.Mixed(heldOutUEs, trafficSeed(cfg.seed, "ue_walk"))
	rows := campaignRows(hs.Area, hs.Sim)
	out.checkpoint("traffic")
	reqs := make([]*request, len(rows))
	for i, r := range rows {
		reqs[i] = &request{kind: kindPredict, path: predictURL(r.q), rows: []int{i}}
	}
	share, distinct := repeatShare(rows)
	out.inputs["rows"] = len(rows)
	out.inputs["ues"] = hs.UEs()
	out.inputs["repeat_key_share"] = share
	out.inputs["distinct_keys"] = distinct
	out.inputs["rows_per_shard"] = rowsPerShard(s, rows)

	// Scoring pass: every row once, checked byte for byte against an
	// in-memory mapserver over the same chain. A /predict answer can come
	// from the replica's prediction cache, which keeps the first answer
	// computed for a quantized key, so each shard's rows go out in row
	// order on a caller of their own and are replayed in the same order
	// into one fresh in-memory server per shard: equal cache histories,
	// equal bytes, and quality that repeats exactly.
	lanes := shardLanes(s, rows)
	answers, t := onePass(c, s.url, reqs, lanes)
	out.other.add(t)
	w := newMemWriter()
	for _, lane := range lanes {
		ref, err := mapserver.NewWithChain(m.tm, m.chain)
		if err != nil {
			return nil, err
		}
		for _, i := range lane {
			if answers[i].body == nil {
				continue
			}
			serveMem(ref, reqs[i], w)
			out.parity.note(w.code == http.StatusOK && bytes.Equal(w.buf.Bytes(), answers[i].body),
				"ue_walk row %d: fleet %q, in-memory %q", i, answers[i].body, w.buf.Bytes())
		}
	}
	bands, ok := servedRows(reqs, answers, len(rows))
	out.qual = scoreRows(rows, allIdx(len(rows)), bands, ok)
	out.checkpoint("scored")

	next, err := timedPhase(c, s, reqs, 0, cfg.dur(), out)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}

	// Traced replay: the next requests the timed phase would have sent,
	// one at a time, down every layer.
	n := ueWalkLadder
	if n > len(reqs) {
		n = len(reqs)
	}
	sample := make([]*request, n)
	for k := range sample {
		sample[k] = reqs[(next+k)%len(reqs)]
	}
	ladderRef, err := mapserver.NewWithChain(m.tm, m.chain)
	if err != nil {
		return nil, err
	}
	eng := ladderRef.Engine()
	tiers := m.chain.Tiers()
	router := s.fleet.Router()
	tr := newTracer()
	seen := map[engine.Key]bool{}
	misses := 0
	var buf bytes.Buffer
	for k, r := range sample {
		tr.req = k
		rw := rows[r.rows[0]]
		traceClient(tr, "transport", c, s.url, r, &buf, &out.other)
		traceHandler(tr, "fleet", "transport", router, r, w)
		traceHandler(tr, "mapserver", "fleet", ladderRef, r, w)
		if seen[rw.key] {
			continue // answered from the replica's prediction cache
		}
		seen[rw.key] = true
		misses++
		px := pixelOf(rw.q)
		tr.call("engine", "mapserver", 1, func() { eng.PredictInterval(px, rw.q.Speed, rw.q.Bearing) })
		q := chainQuery(px, rw.q.Speed, rw.q.Bearing)
		var cp lumos5g.ChainPrediction
		tr.call("lumos5g", "engine", 1, func() { cp = m.chain.PredictInterval(q) })
		if cp.Tier < len(tiers) {
			p := tiers[cp.Tier]
			x := featureRow(q, p.FeatureNames())
			tr.call("compiled", "lumos5g", 1, func() { p.Predict(x) })
		}
	}
	// The replay assumed the in-memory server hit its cache exactly on
	// repeated keys; its own counter must agree, or the ladder is off.
	sc, err := registryScrape(ladderRef.Metrics())
	if err != nil {
		return nil, err
	}
	hits := sc.sum(cacheHitsTotal)

	lad, self := summarize(tr.spans, "transport")
	out.ladder, out.spans = &lad, tr.spans
	allocRef, err := mapserver.NewWithChain(m.tm, m.chain)
	if err != nil {
		return nil, err
	}
	out.layers = map[string]float64{
		"transport.self_us":              medianPerReq(self, "transport") * 1e6,
		"fleet.self_us":                  medianPerReq(self, "fleet") * 1e6,
		"mapserver.self_us":              medianPerReq(self, "mapserver") * 1e6,
		"engine.self_ns_per_row":         medianPerRow(self, "engine") * 1e9,
		"lumos5g.chain_self_ns_per_row":  medianPerRow(self, "lumos5g") * 1e9,
		"compiled.kernel_ns_per_row":     medianPerRow(self, "compiled") * 1e9,
		"mapserver.allocs_per_req":       handlerAllocs(allocRef, sample),
		"engine.allocs_per_row":          predictAllocs(eng, rows, sample),
		"trace.roundtrip_p50_ms":         lad.RoundTripP50 * 1e3,
		"trace.negative_layers":          float64(len(lad.Negative)),
		"trace.ladder_closure":           lad.Closure,
		"trace.cache_hits_observed_diff": hits - float64(n-misses),
	}
	return out, nil
}

// predictAllocs counts engine allocations per single prediction.
func predictAllocs(eng *engine.Engine, rows []row, reqs []*request) float64 {
	m := mallocsDuring(func() {
		for _, r := range reqs {
			q := rows[r.rows[0]].q
			eng.PredictInterval(pixelOf(q), q.Speed, q.Bearing)
		}
	})
	return float64(m) / float64(len(reqs))
}

// registryScrape renders an in-memory registry as a scrape.
func registryScrape(reg *obs.Registry) (scrape, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(&b)
}

// shardLanes lists, per fleet shard, the rows it owns in row order.
func shardLanes(s *server, rows []row) [][]int {
	topo := s.fleet.Topology()
	pos := map[string]int{}
	lanes := make([][]int, len(topo.Shards))
	for i, sh := range topo.Shards {
		pos[sh.ID] = i
	}
	for i, r := range rows {
		k := pos[topo.Owner(r.key).ID]
		lanes[k] = append(lanes[k], i)
	}
	return lanes
}

// rowsPerShard counts the rows each fleet shard owns.
func rowsPerShard(s *server, rows []row) map[string]int {
	topo := s.fleet.Topology()
	out := map[string]int{}
	for _, r := range rows {
		out[topo.Owner(r.key).ID]++
	}
	return out
}

// ---- trace_forecast ------------------------------------------------------

func runTraceForecast(cfg runConfig) (*runOut, error) {
	c := newClient()
	m, s, st, err := setupMedian(c, deployFleet)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newRunOut(m, st)

	hs := m.city.Mixed(lookaheadUEs, trafficSeed(cfg.seed, "trace_forecast"))
	rows := campaignRows(hs.Area, hs.Sim)
	out.checkpoint("traffic")
	chunks, covered := lookaheadChunks(rows, lookaheadRows)
	if len(chunks) == 0 {
		return nil, fmt.Errorf("no held-out route lasts %d seconds", lookaheadRows)
	}
	reqs := make([]*request, len(chunks))
	for k, idx := range chunks {
		reqs[k] = &request{kind: kindBinary, path: "/predict/batch", body: queryFrame(rows, idx), rows: idx}
	}
	coveredRows := make([]row, len(covered))
	for j, i := range covered {
		coveredRows[j] = rows[i]
	}
	out.inputs["rows"] = len(covered)
	out.inputs["campaign_rows"] = len(rows)
	out.inputs["ues"] = hs.UEs()
	out.inputs["requests"] = len(reqs)
	out.inputs["rows_per_request"] = lookaheadRows
	out.inputs["rows_per_shard"] = rowsPerShard(s, coveredRows)

	answers, t := onePass(c, s.url, reqs, nil)
	out.other.add(t)
	ref, err := mapserver.NewWithChain(m.tm, m.chain)
	if err != nil {
		return nil, err
	}
	w := newMemWriter()
	for k, r := range reqs {
		if answers[k].body == nil {
			continue
		}
		serveMem(ref, r, w)
		got, gerr := wire.DecodeResults(answers[k].body, len(r.rows))
		want, werr := wire.DecodeResults(w.buf.Bytes(), len(r.rows))
		out.parity.note(gerr == nil && werr == nil && reflect.DeepEqual(got, want),
			"trace_forecast request %d: fleet rows differ from in-memory rows (%v, %v)", k, gerr, werr)
	}
	bands, ok := servedRows(reqs, answers, len(rows))
	out.qual = scoreRows(rows, covered, bands, ok)
	out.checkpoint("scored")

	if _, err := timedPhase(c, s, reqs, 0, cfg.dur(), out); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}

	n := batchLadder
	if n > len(reqs) {
		n = len(reqs)
	}
	sample := reqs[:n]
	ladderRef, err := mapserver.NewWithChain(m.tm, m.chain)
	if err != nil {
		return nil, err
	}
	eng := ladderRef.Engine()
	router := s.fleet.Router()
	topo := s.fleet.Topology()
	tr := newTracer()
	var buf bytes.Buffer
	for k, r := range sample {
		tr.req = k
		traceClient(tr, "transport", c, s.url, r, &buf, &out.other)
		traceHandler(tr, "fleet", "transport", router, r, w)

		// The router scatters by owning shard and waits for the slowest
		// sub-batch; the ladder follows that critical sub-batch down.
		byShard := map[string][]int{}
		var order []string
		for _, i := range r.rows {
			id := topo.Owner(rows[i].key).ID
			if _, ok := byShard[id]; !ok {
				order = append(order, id)
			}
			byShard[id] = append(byShard[id], i)
		}
		var critIdx []int
		var critStart, critEnd time.Time
		var critBody []byte
		for _, id := range order {
			sub := &request{kind: kindBinary, path: "/predict/batch", body: queryFrame(rows, byShard[id]), rows: byShard[id]}
			hr := sub.newHTTP(ladderBaseURL)
			w.reset()
			t0 := time.Now()
			ladderRef.ServeHTTP(w, hr)
			t1 := time.Now()
			if critIdx == nil || t1.Sub(t0) > critEnd.Sub(critStart) {
				critIdx, critStart, critEnd = byShard[id], t0, t1
				critBody = bytes.Clone(w.buf.Bytes())
			}
		}
		tr.add("mapserver", "fleet", len(critIdx), critStart, critEnd)
		frame := queryFrame(rows, critIdx)
		tr.call("wire.decode_queries", "mapserver", len(critIdx), func() { _, _ = wire.DecodeQueries(frame, len(critIdx)) })
		preds := traceBatchBelowMapserver(tr, eng, m.chain, rows, critIdx)
		rs := wireResults(preds)
		var enc []byte
		tr.call("wire.encode_results", "mapserver", len(critIdx), func() { enc, _ = wire.AppendResultsIntervals(enc, rs) })
		tr.call("wire.decode_results", "fleet", len(critIdx), func() { _, _ = wire.DecodeResults(critBody, len(critIdx)) })
	}
	lad, self := summarize(tr.spans, "transport")
	out.ladder, out.spans = &lad, tr.spans
	allocRef, err := mapserver.NewWithChain(m.tm, m.chain)
	if err != nil {
		return nil, err
	}
	out.layers = map[string]float64{
		"transport.self_us":              medianPerReq(self, "transport") * 1e6,
		"fleet.self_us":                  medianPerReq(self, "fleet") * 1e6,
		"mapserver.self_us":              medianPerReq(self, "mapserver") * 1e6,
		"wire.decode_queries_ns_per_row": medianPerRow(self, "wire.decode_queries") * 1e9,
		"wire.encode_results_ns_per_row": medianPerRow(self, "wire.encode_results") * 1e9,
		"wire.decode_results_ns_per_row": medianPerRow(self, "wire.decode_results") * 1e9,
		"engine.self_ns_per_row":         medianPerRow(self, "engine") * 1e9,
		"lumos5g.chain_self_ns_per_row":  medianPerRow(self, "lumos5g") * 1e9,
		"compiled.kernel_ns_per_row":     medianPerRow(self, "compiled") * 1e9,
		"mapserver.allocs_per_req":       handlerAllocs(allocRef, sample),
		"engine.allocs_per_row":          batchAllocs(eng, rows, sample),
		"trace.roundtrip_p50_ms":         lad.RoundTripP50 * 1e3,
		"trace.negative_layers":          float64(len(lad.Negative)),
		"trace.ladder_closure":           lad.Closure,
	}
	return out, nil
}

// queryFrame encodes rows idx as one binary request frame.
func queryFrame(rows []row, idx []int) []byte {
	qs := make([]wire.Query, len(idx))
	for j, i := range idx {
		qs[j] = rows[i].q
	}
	return wire.AppendQueries(nil, qs)
}

// wireResults converts engine answers to wire rows as the mapserver
// does before encoding.
func wireResults(preds []engine.Prediction) []wire.Result {
	rs := make([]wire.Result, len(preds))
	for i, p := range preds {
		rs[i] = wire.Result{Mbps: p.Mbps, Class: p.Class, Source: p.Source, Tier: p.Tier,
			Degraded: p.Degraded, Missing: p.Missing, P10: p.P10, P90: p.P90, HasInterval: p.HasInterval}
	}
	return rs
}

// ---- outage_refit --------------------------------------------------------

// batchQuery is the JSON form of one /predict/batch query.
type batchQuery struct {
	Lat     float64  `json:"lat"`
	Lon     float64  `json:"lon"`
	Speed   *float64 `json:"speed,omitempty"`
	Bearing *float64 `json:"bearing,omitempty"`
}

func jsonForecast(rows []row, idx []int) *request {
	qs := make([]batchQuery, len(idx))
	for j, i := range idx {
		q := rows[i].q
		qs[j] = batchQuery{Lat: q.Lat, Lon: q.Lon, Speed: q.Speed, Bearing: q.Bearing}
	}
	body, _ := json.Marshal(qs)
	return &request{kind: kindJSON, path: "/predict/batch?intervals=1", body: body, rows: idx}
}

func ingestPost(rows []row, idx []int) *request {
	ss := make([]ingest.Sample, len(idx))
	for j, i := range idx {
		ss[j] = ingest.SampleFromRecord(&rows[i].rec)
	}
	body, _ := json.Marshal(ss)
	return &request{kind: kindIngest, path: "/ingest", body: body, rows: idx}
}

func runOutageRefit(cfg runConfig) (*runOut, error) {
	c := newClient()
	m, s, st, err := setupMedian(c, deployIngest)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newRunOut(m, st)

	sc, err := m.city.Outage(outageTower, outageUEs, trafficSeed(cfg.seed, "outage_refit"))
	if err != nil {
		return nil, err
	}
	rows := campaignRows(sc.Area, sc.Sim)
	out.checkpoint("traffic")
	lte := 0
	for _, r := range rows {
		if r.lte {
			lte++
		}
	}
	out.inputs["rows"] = len(rows)
	out.inputs["ues"] = sc.UEs()
	out.inputs["lte_share"] = float64(lte) / float64(len(rows))
	out.inputs["rounds"] = outageRounds

	bands := make([]band, len(rows))
	ok := make([]bool, len(rows))
	slice := time.Duration(float64(cfg.dur()) / outageRounds)
	startMetrics, err := scrapeMetrics(c, s.url)
	if err != nil {
		return nil, err
	}
	var allFwd []*request
	var windows []int
	for rd := 0; rd < outageRounds; rd++ {
		lo, hi := rd*len(rows)/outageRounds, (rd+1)*len(rows)/outageRounds
		var fwd []*request
		for _, idx := range contiguousChunks(lo, hi, outageBatchRows) {
			fwd = append(fwd, jsonForecast(rows, idx))
		}
		// 1. Forecast the segment, each row scored once, and checked
		// against a fresh in-memory server over the live chain.
		answers, t := onePass(c, s.url, fwd, nil)
		out.other.add(t)
		ref, err := mapserver.NewWithChain(m.tm, s.ms.Chain())
		if err != nil {
			return nil, err
		}
		w := newMemWriter()
		for k, r := range fwd {
			if answers[k].body == nil {
				continue
			}
			serveMem(ref, r, w)
			out.parity.note(w.code == http.StatusOK && bytes.Equal(w.buf.Bytes(), answers[k].body),
				"outage_refit round %d request %d: served body differs from in-memory body", rd, k)
		}
		rb, rok := servedRows(fwd, answers, len(rows))
		var segIdx []int
		for i := lo; i < hi; i++ {
			bands[i], ok[i] = rb[i], rok[i]
			segIdx = append(segIdx, i)
		}
		rq := scoreRows(rows, segIdx, bands, ok)
		// The timed phase repeats the round's read-only forecasts.
		if _, err := timedPhase(c, s, fwd, 0, slice, out); err != nil {
			return nil, err
		}
		// 2. Ingest the segment's truth; 3. refit at this fixed point.
		var posts []*request
		for _, idx := range contiguousChunks(lo, hi, ingestBatch) {
			posts = append(posts, ingestPost(rows, idx))
		}
		acc0 := s.ing.Health().Accepted
		t0 := time.Now()
		out.other.add(sequential(c, s.url, posts))
		t1 := time.Now()
		res, rerr := s.ing.RefitNow(s.ms)
		t2 := time.Now()
		out.learnS += t2.Sub(t0).Seconds()
		refitFailed := rerr != nil && res.Reason != "gate"
		out.other.attempted++
		if refitFailed {
			out.other.failed++
			if out.other.firstErr == nil {
				out.other.firstErr = fmt.Errorf("round %d refit: %w", rd, rerr)
			}
		}
		out.rounds = append(out.rounds, roundDiag{
			Round: rd, Rows: hi - lo, ForecastMAE: rq.MAE, Coverage: rq.Coverage,
			Accepted: s.ing.Health().Accepted - acc0, WindowSamples: res.Samples, Swapped: res.Swapped,
			Skipped: res.Skipped, Reason: res.Reason, LiveMAE: finite(res.LiveMAE), CandMAE: finite(res.CandMAE),
			IngestS: t1.Sub(t0).Seconds(), RefitS: t2.Sub(t1).Seconds(),
		})
		windows = append(windows, res.Samples)
		allFwd = append(allFwd, fwd...)
	}
	out.inputs["window_samples_per_round"] = windows
	out.inputs["ingest_reject_reasons"] = s.ing.Health().RejectReasons
	out.qual = scoreRows(rows, allIdx(len(rows)), bands, ok)
	endMetrics, err := scrapeMetrics(c, s.url)
	if err != nil {
		return nil, err
	}
	posted := float64(len(rows))
	out.counters["ingest_accepted"] = delta(startMetrics, endMetrics, "lumos_ingest_accepted_total")
	out.counters["ingest_posted"] = posted
	out.counters["refits"] = delta(startMetrics, endMetrics, "lumos_refit_total")
	out.counters["refits_accepted"] = delta(startMetrics, endMetrics, "lumos_refit_accepted_total")
	if !cfg.trace {
		return out, nil
	}

	// Traced replay of the first forecasts and ingest posts, against the
	// chain the last refit left serving.
	n := outageLadder
	if n > len(allFwd) {
		n = len(allFwd)
	}
	sample := allFwd[:n]
	eng := s.ms.Engine()
	chain := eng.Chain()
	tr := newTracer()
	w := newMemWriter()
	var buf bytes.Buffer
	for k, r := range sample {
		tr.req = k
		traceClient(tr, "transport", c, s.url, r, &buf, &out.other)
		traceHandler(tr, "mapserver", "transport", s.ms, r, w)
		traceBatchBelowMapserver(tr, eng, chain, rows, r.rows)
	}
	lad, self := summarize(tr.spans, "transport")

	itr := newTracer()
	scratch := ingest.New(obs.NewRegistry(), ingest.Config{QueueSize: ingestQueue})
	var posts []*request
	for _, idx := range contiguousChunks(0, ingestLadder*ingestBatch, ingestBatch) {
		posts = append(posts, ingestPost(rows, idx))
	}
	for k, r := range posts {
		itr.req = k
		traceClient(itr, "transport.ingest", c, s.url, r, &buf, &out.other)
		traceHandler(itr, "mapserver.ingest", "transport.ingest", s.ms, r, w)
		var samples []ingest.Sample
		if err := json.Unmarshal(r.body, &samples); err != nil {
			return nil, err
		}
		itr.call("ingest", "mapserver.ingest", len(samples), func() { scratch.Ingest(samples) })
	}
	ilad, iself := summarize(itr.spans, "transport.ingest")
	out.ladder, out.spans = &lad, append(tr.spans, itr.spans...)
	out.inputs["ingest_ladder"] = ilad
	var refitS float64
	for _, rd := range out.rounds {
		refitS += rd.RefitS
	}
	out.layers = map[string]float64{
		"transport.self_us":             medianPerReq(self, "transport") * 1e6,
		"mapserver.self_us":             medianPerReq(self, "mapserver") * 1e6,
		"engine.self_ns_per_row":        medianPerRow(self, "engine") * 1e9,
		"lumos5g.chain_self_ns_per_row": medianPerRow(self, "lumos5g") * 1e9,
		"compiled.kernel_ns_per_row":    medianPerRow(self, "compiled") * 1e9,
		"mapserver.allocs_per_req":      handlerAllocs(s.ms, sample),
		"engine.allocs_per_row":         batchAllocs(eng, rows, sample),
		"ingest.self_ns_per_sample":     medianPerRow(iself, "ingest") * 1e9,
		"ingest.refit_s":                refitS / float64(len(out.rounds)),
		"trace.roundtrip_p50_ms":        lad.RoundTripP50 * 1e3,
		"trace.negative_layers":         float64(len(lad.Negative) + len(ilad.Negative)),
		"trace.ladder_closure":          lad.Closure,
	}
	return out, nil
}
