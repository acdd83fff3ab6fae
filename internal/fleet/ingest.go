package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"

	"lumos5g/internal/engine"
	"lumos5g/internal/ingest"
	"lumos5g/internal/par"
	"lumos5g/internal/wire"
)

// POST /ingest on the router: samples are forwarded to the shard that
// owns their map cell — the same rendezvous key /predict routes by, so
// a replica's refit window holds exactly the region it serves. Each
// shard's sub-batch walks that shard's replicas only (no cross-shard
// failover: another shard refitting on foreign cells would learn a map
// it does not own). Backpressure composes: a replica whose ingest
// queue is full answers 429 + Retry-After, the router tries a sibling
// replica, and only when a whole shard is saturated do those samples
// surface as dropped — 429 to the UE when nothing anywhere fit.

// IngestResponse is the fleet /ingest wire form: the merged per-shard
// accounting plus explicit partiality, mirroring BatchResponse.
type IngestResponse struct {
	Partial  bool           `json:"partial"`
	Accepted int            `json:"accepted"`
	Rejected int            `json:"rejected"`
	Dropped  int            `json:"dropped"`
	Failed   int            `json:"failed"`
	Reasons  map[string]int `json:"reasons,omitempty"`
	Missing  []string       `json:"missing,omitempty"`
}

// handleIngest decodes once, under the replica's own body and batch
// bounds (wire.MaxBodyBytes, ingest.DecodeBatch), gates nothing itself
// (the replica gate is the single source of rejection truth: CSV,
// replica ingest, and routed ingest reject identically), groups
// samples by owning shard, and scatters.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
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
	var body bytes.Buffer
	samples, err := ingest.DecodeBatch(io.TeeReader(r.Body, &body))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Shards are sent their samples' own bytes, not a re-encoding: a
	// re-encoding can outgrow the body bound the replica enforces (HTML
	// escaping, null required fields), a subset of the client's
	// elements cannot.
	var raws []json.RawMessage
	if err := json.NewDecoder(&body).Decode(&raws); err != nil || len(raws) != len(samples) {
		wire.WriteError(w, http.StatusBadRequest, "body must be a JSON array of samples")
		return
	}

	// Samples without usable coordinates still go somewhere
	// deterministic (the zero cell's owner) so the replica gate rejects
	// and counts them.
	parts := partition(topo, len(samples), func(i int) engine.Key {
		var lat, lon float64
		if samples[i].Lat != nil && samples[i].Lon != nil {
			lat, lon = *samples[i].Lat, *samples[i].Lon
		}
		return RouteKey(lat, lon, nil, nil)
	})

	type shardOutcome struct {
		res ingest.BatchResult
		ok  bool
		bp  bool // whole shard backpressured
	}
	outs := make([]shardOutcome, len(parts))
	par.Do(len(parts), len(parts), func(k int) {
		sub := []byte{'['}
		for j, i := range parts[k].idxs {
			if j > 0 {
				sub = append(sub, ',')
			}
			sub = append(sub, raws[i]...)
		}
		sub = append(sub, ']')
		res := rt.shardTry(r.Context(), parts[k].sh, call{target: "/ingest", body: sub, contentType: "application/json"})
		switch {
		case res.ok():
			outs[k].ok = json.Unmarshal(res.body, &outs[k].res) == nil
		case res.backpressure():
			outs[k].bp = true
		}
	})

	resp := IngestResponse{}
	for k, out := range outs {
		switch {
		case out.ok:
			resp.Accepted += out.res.Accepted
			resp.Rejected += out.res.Rejected
			resp.Dropped += out.res.Dropped
			for reason, n := range out.res.Reasons {
				if resp.Reasons == nil {
					resp.Reasons = make(map[string]int)
				}
				resp.Reasons[reason] += n
			}
		case out.bp:
			// The whole shard said "no room": those samples were shed,
			// not lost — the UE retries after Retry-After.
			resp.Dropped += len(parts[k].idxs)
		default:
			resp.Failed += len(parts[k].idxs)
			resp.Partial = true
			resp.Missing = append(resp.Missing, parts[k].sh.ID)
		}
	}
	sort.Strings(resp.Missing)
	rt.m.ingestRows.With("accepted").Add(uint64(resp.Accepted))
	rt.m.ingestRows.With("rejected").Add(uint64(resp.Rejected))
	rt.m.ingestRows.With("dropped").Add(uint64(resp.Dropped))
	rt.m.ingestRows.With("failed").Add(uint64(resp.Failed))
	if resp.Partial {
		rt.m.partials.Inc()
	}
	if resp.Dropped > 0 && resp.Accepted == 0 && resp.Rejected == 0 && resp.Failed == 0 {
		w.Header().Set("Retry-After", "1")
		wire.WriteJSON(w, http.StatusTooManyRequests, resp)
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}
