package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"lumos5g/internal/ingest"
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

// backpressure reports an explicit queue-full answer: healthy server,
// no room — retry a sibling, never the breaker's business.
func (a attemptResult) backpressure() bool {
	return a.err == nil && a.status == http.StatusTooManyRequests && a.retryAfter
}

// ingestShardTry walks one shard's replicas like shardTry, but treats
// 429 backpressure as retryable-elsewhere instead of definitive: a
// full queue on one replica says nothing about its siblings.
func (rt *Router) ingestShardTry(ctx context.Context, sh *Shard, body []byte) attemptResult {
	cands := sh.candidates()
	if len(cands) == 0 {
		return attemptResult{err: fmt.Errorf("shard %s has no replicas", sh.ID)}
	}
	delay := rt.cfg.RetryBase
	var last attemptResult
	for i, rep := range cands {
		if i > 0 {
			if !sleepCtx(ctx, rt.jitter(delay)) {
				return last
			}
			if delay *= 2; delay > rt.cfg.RetryMax {
				delay = rt.cfg.RetryMax
			}
		}
		last = rt.tryPOST(ctx, candidate{shard: sh, rep: rep}, "/ingest", body)
		if last.ok() {
			return last
		}
		if last.backpressure() {
			continue
		}
		if last.definitive() {
			return last
		}
	}
	return last
}

// handleIngest decodes once, under the replica's own body and batch
// bounds (wire.MaxBodyBytes, ingest.DecodeBatch), gates nothing itself
// (the replica gate is the single source of rejection truth: CSV,
// replica ingest, and routed ingest reject identically), groups
// samples by owning shard, and scatters.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	topo := rt.Topology()
	if topo == nil || len(topo.Shards) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no shards in topology")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	var body bytes.Buffer
	samples, err := ingest.DecodeBatch(io.TeeReader(r.Body, &body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Shards are sent their samples' own bytes, not a re-encoding: a
	// re-encoding can outgrow the body bound the replica enforces (HTML
	// escaping, null required fields), a subset of the client's
	// elements cannot.
	var raws []json.RawMessage
	if err := json.NewDecoder(&body).Decode(&raws); err != nil || len(raws) != len(samples) {
		writeError(w, http.StatusBadRequest, "body must be a JSON array of samples")
		return
	}

	// Group sample indices by owning shard. Samples without usable
	// coordinates still go somewhere deterministic (the zero cell's
	// owner) so the replica gate rejects and counts them.
	byShard := make(map[*Shard][]int)
	for i := range samples {
		var lat, lon float64
		if samples[i].Lat != nil && samples[i].Lon != nil {
			lat, lon = *samples[i].Lat, *samples[i].Lon
		}
		k := RouteKey(lat, lon, nil, nil)
		byShard[topo.Owner(k)] = append(byShard[topo.Owner(k)], i)
	}

	type shardOutcome struct {
		sh  *Shard
		n   int
		res ingest.BatchResult
		ok  bool
		bp  bool // whole shard backpressured
		why string
	}
	outs := make([]shardOutcome, 0, len(byShard))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for sh, idxs := range byShard {
		wg.Add(1)
		go func(sh *Shard, idxs []int) {
			defer wg.Done()
			sub := []byte{'['}
			for j, i := range idxs {
				if j > 0 {
					sub = append(sub, ',')
				}
				sub = append(sub, raws[i]...)
			}
			sub = append(sub, ']')
			res := rt.ingestShardTry(r.Context(), sh, sub)
			out := shardOutcome{sh: sh, n: len(idxs)}
			switch {
			case res.ok():
				if err := json.Unmarshal(res.body, &out.res); err == nil {
					out.ok = true
				} else {
					out.why = fmt.Sprintf("shard %s: undecodable ingest result", sh.ID)
				}
			case res.backpressure():
				out.bp = true
			default:
				out.why = shardFailureReason(sh, res)
			}
			mu.Lock()
			outs = append(outs, out)
			mu.Unlock()
		}(sh, idxs)
	}
	wg.Wait()

	resp := IngestResponse{}
	for _, out := range outs {
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
			resp.Dropped += out.n
		default:
			resp.Failed += out.n
			resp.Partial = true
			resp.Missing = append(resp.Missing, out.sh.ID)
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
		writeJSON(w, http.StatusTooManyRequests, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
