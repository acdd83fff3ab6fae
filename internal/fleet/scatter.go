package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"lumos5g/internal/engine"
	"lumos5g/internal/obs"
	"lumos5g/internal/par"
	"lumos5g/internal/wire"
)

// Fan-out routes. The contract that matters here is explicit
// partiality: a batch or map-wide query touching a dead shard comes
// back with that shard's portion marked failed — per-row provenance,
// a top-level partial flag — and everything else served. Never a
// silent hole (a row quietly missing), never a hang (every sub-request
// is bounded by the attempt timeout), and no cross-shard failover for
// shard-owned data: a fallback shard does not hold the dead shard's
// map slice, so pretending it can answer would be a wrong answer with
// a healthy status code.

// BatchRow is one row of the fleet batch answer: the replica's
// prediction plus shard provenance, or an explicit failure marker.
// Mbps is a pointer so a failed row is a JSON null — absence you can
// see — rather than a fake zero. P10/P50/P90 are present only when the
// batch negotiated intervals (and the row served), so interval-off
// fleet answers keep the historical field set.
type BatchRow struct {
	Mbps       *float64 `json:"mbps"`
	P10        *float64 `json:"p10,omitempty"`
	P50        *float64 `json:"p50,omitempty"`
	P90        *float64 `json:"p90,omitempty"`
	Calibrated *bool    `json:"calibrated,omitempty"`
	Class      string   `json:"class,omitempty"`
	Source     string   `json:"source,omitempty"`
	Tier       int      `json:"tier"`
	Degraded   bool     `json:"degraded"`
	Missing    []string `json:"missing,omitempty"`
	Shard      string   `json:"shard"`
	Error      string   `json:"error,omitempty"`
}

// BatchResponse is the fleet /predict/batch wire form.
type BatchResponse struct {
	Partial bool       `json:"partial"`
	Rows    []BatchRow `json:"rows"`
}

// shardTry walks one shard's replicas in candidate order, behind the
// same backoff as the single-query path but with no cross-shard
// failover, until one answers finally: a success, or a 4xx every
// replica would repeat. A 429 with Retry-After is one replica's full
// queue, so the walk moves on to a sibling. Every shard-scoped route
// (/predict/batch, /cells.json, /ingest) walks this way.
func (rt *Router) shardTry(ctx context.Context, sh *Shard, cl call) attemptResult {
	cands := sh.candidates()
	if len(cands) == 0 {
		return attemptResult{err: fmt.Errorf("shard %s has no replicas", sh.ID)}
	}
	bo := newBackoff(rt.jit, rt.cfg.RetryBase, rt.cfg.RetryMax)
	var last attemptResult
	for i, rep := range cands {
		if i > 0 && !bo.wait(ctx) {
			return last
		}
		last = rt.attempt(ctx, candidate{shard: sh, rep: rep}, cl)
		if last.ok() || last.definitive() {
			return last
		}
	}
	return last
}

// shardPart is one shard's share of a scattered request: the indices
// of the rows whose cells it owns, in request order.
type shardPart struct {
	sh   *Shard
	idxs []int
}

// partition groups row indices [0, n) by the shard owning each row's
// key, parts in order of their first row.
func partition(topo *Topology, n int, key func(i int) engine.Key) []shardPart {
	var parts []shardPart
	for i := 0; i < n; i++ {
		sh := topo.Owner(key(i))
		k := 0
		for k < len(parts) && parts[k].sh != sh {
			k++
		}
		if k == len(parts) {
			parts = append(parts, shardPart{sh: sh})
		}
		parts[k].idxs = append(parts[k].idxs, i)
	}
	return parts
}

// handleBatch scatters the batch across owning shards and gathers an
// explicitly-partial answer. It decodes, bounds and validates the body
// and negotiates the answer form with the replicas' own contract
// (wire.DecodeBatch, wire.Negotiate), so a batch the router admits is
// one every replica admits, and a complete binary answer is the frame a
// single server would send. Sub-batches forward to replicas as binary
// frames regardless of the client encoding — the replicas always speak
// the wire format, and the columnar frame is the cheap path. A partial
// answer carries per-row failure markers (null mbps, shard provenance,
// error strings) the binary frame cannot represent, so it falls back to
// the JSON BatchResponse envelope.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	topo := rt.Topology()
	if topo == nil || len(topo.Shards) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no shards in topology")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	queries, err := wire.DecodeBatch(r.Header.Get("Content-Type"), r.Body)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	form := wire.Negotiate(r.Header.Get("Accept"), r.URL.RawQuery)
	// Replicas are asked for the band only when the client wants it.
	subAccept := wire.Form{Binary: true, Intervals: form.Intervals}.ContentType()

	parts := partition(topo, len(queries), func(i int) engine.Key {
		return RouteKey(queries[i].Lat, queries[i].Lon, queries[i].Speed, queries[i].Bearing)
	})
	// Each shard's sub-request merges its served rows straight into
	// results, or records why the shard could not answer in failures;
	// BatchRow exists only for the JSON / partial envelope below.
	results := make([]wire.Result, len(queries))
	failures := make([]string, len(parts))
	par.Do(len(parts), len(parts), func(k int) {
		sh, idxs := parts[k].sh, parts[k].idxs
		sub := make([]wire.Query, len(idxs))
		for j, i := range idxs {
			sub[j] = queries[i]
		}
		res := rt.shardTry(r.Context(), sh, call{target: "/predict/batch",
			body: wire.AppendQueries(nil, sub), contentType: wire.ContentType, accept: subAccept})
		var served []wire.Result
		ok := res.ok()
		if ok {
			var err error
			served, err = wire.DecodeResults(res.body, len(idxs))
			if err != nil || len(served) != len(idxs) {
				ok = false
			}
		}
		if !ok {
			failures[k] = shardFailureReason(sh, res)
			rt.m.batchRows.With("failed").Add(uint64(len(idxs)))
			return
		}
		for j, i := range idxs {
			results[i] = served[j]
		}
		rt.m.batchRows.With("served").Add(uint64(len(idxs)))
	})

	partial := false
	for _, f := range failures {
		partial = partial || f != ""
	}
	if partial {
		rt.m.partials.Inc()
	}
	if !partial && form.Binary {
		frame, err := form.AppendFrame(nil, results)
		if err == nil {
			w.Header().Set("Content-Type", form.ContentType())
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(frame)
			return
		}
		// An unencodable merge (string-table overflow) falls back to
		// the JSON envelope rather than failing the whole batch.
	}
	rows := make([]BatchRow, len(queries))
	for k, part := range parts {
		if failures[k] != "" {
			missing := []string{"shard:" + part.sh.ID}
			for _, i := range part.idxs {
				rows[i] = BatchRow{
					Tier:     -1,
					Degraded: true,
					Missing:  missing,
					Shard:    part.sh.ID,
					Error:    failures[k],
				}
			}
			continue
		}
		for _, i := range part.idxs {
			sr := &results[i]
			rows[i] = BatchRow{
				Mbps: &sr.Mbps, Class: sr.Class, Source: sr.Source,
				Tier: sr.Tier, Degraded: sr.Degraded, Missing: sr.Missing,
				Shard: part.sh.ID,
			}
			if form.Intervals {
				rows[i].P10, rows[i].P50, rows[i].P90 = &sr.P10, &sr.Mbps, &sr.P90
				rows[i].Calibrated = &sr.HasInterval
			}
		}
	}
	wire.WriteJSON(w, http.StatusOK, BatchResponse{Partial: partial, Rows: rows})
}

func shardFailureReason(sh *Shard, res attemptResult) string {
	switch {
	case res.err != nil:
		return fmt.Sprintf("shard %s unavailable: %v", sh.ID, res.err)
	case res.status != 0 && res.status != http.StatusOK:
		return fmt.Sprintf("shard %s answered %d", sh.ID, res.status)
	default:
		return fmt.Sprintf("shard %s returned an unusable answer", sh.ID)
	}
}

// cellJSON mirrors one replica /cells.json element; the router merges
// without reinterpreting, so raw messages suffice.
type cellJSON = json.RawMessage

// CellsResponse is the fleet map-wide query: every live shard's cells
// merged, with the shards that could not answer listed instead of
// silently absent.
type CellsResponse struct {
	Partial bool       `json:"partial"`
	Missing []string   `json:"missing,omitempty"`
	Cells   []cellJSON `json:"cells"`
}

// handleCells scatters the map-wide cell dump to every shard and merges.
func (rt *Router) handleCells(w http.ResponseWriter, r *http.Request) {
	topo := rt.Topology()
	if topo == nil || len(topo.Shards) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no shards in topology")
		return
	}
	cells := make([][]cellJSON, len(topo.Shards))
	failed := make([]bool, len(topo.Shards))
	par.Do(len(topo.Shards), len(topo.Shards), func(i int) {
		res := rt.shardTry(r.Context(), topo.Shards[i], call{target: "/cells.json"})
		failed[i] = !res.ok() || json.Unmarshal(res.body, &cells[i]) != nil
	})

	resp := CellsResponse{Cells: []cellJSON{}}
	for i, sh := range topo.Shards {
		if failed[i] {
			resp.Partial = true
			resp.Missing = append(resp.Missing, sh.ID)
			continue
		}
		resp.Cells = append(resp.Cells, cells[i]...)
	}
	sort.Strings(resp.Missing)
	if resp.Partial {
		rt.m.partials.Inc()
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// fleetHealth is the router /healthz wire form.
type fleetHealth struct {
	OK     bool          `json:"ok"`
	Shards []shardHealth `json:"shards"`
}

type shardHealth struct {
	ID       string          `json:"id"`
	Draining bool            `json:"draining"`
	OK       bool            `json:"ok"` // at least one replica not down
	Replicas []replicaHealth `json:"replicas"`
}

type replicaHealth struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
}

// handleHealth reports the router's view of the fleet: ok while every
// non-draining shard still has a routable replica.
func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	topo := rt.Topology()
	h := fleetHealth{OK: true}
	if topo == nil {
		h.OK = false
		wire.WriteJSON(w, http.StatusOK, h)
		return
	}
	for _, sh := range topo.Shards {
		shh := shardHealth{ID: sh.ID, Draining: sh.Draining()}
		for _, rep := range sh.Replicas {
			shh.Replicas = append(shh.Replicas, replicaHealth{ID: rep.ID, URL: rep.URL, State: rep.State().String()})
			if rep.State() != StateDown {
				shh.OK = true
			}
		}
		if !shh.OK && !shh.Draining {
			h.OK = false
		}
		h.Shards = append(h.Shards, shh)
	}
	wire.WriteJSON(w, http.StatusOK, h)
}

// handleMetrics serves the router's own fleet_* registry followed by
// the live rollup of every replica's lumos_* exposition, summed
// point-wise by series. Replicas that fail to scrape are skipped and
// counted (fleet_rollup_scrape_failures_total) — a partial rollup over
// a half-dead fleet is still a rollup. A scrape observes the fleet and
// changes nothing about routing: it goes out through send, not attempt,
// so it is no replica attempt and leaves breakers and states alone.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = rt.m.reg.WritePrometheus(w)

	topo := rt.Topology()
	if topo == nil {
		return
	}
	reps := topo.replicas()
	bodies := make([][]byte, len(reps)) // nil where the scrape failed
	par.Do(len(reps), len(reps), func(i int) {
		res, _ := rt.send(r.Context(), candidate{rep: reps[i]}, call{target: "/metrics"})
		if !res.ok() {
			rt.m.rollupErrors.Inc()
			return
		}
		bodies[i] = res.body
	})
	ru := newRollup()
	for _, b := range bodies {
		_ = ru.add(bytes.NewReader(b))
	}
	_ = ru.write(w)
}
