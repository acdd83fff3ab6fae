// Package engine is the transport-agnostic prediction core of the
// serving stack: one immutable (throughput map, fallback chain, prior)
// triple that answers quantized prediction queries, with no knowledge of
// HTTP, JSON, caches or metrics. The engine answers in wire.Result, the
// one answer record of the serving stack, and the transport
// (internal/mapserver) renders that record as a JSON body or a binary
// frame. The fleet router (internal/fleet) reuses the engine's query
// quantization as the shard partition key.
//
// An Engine is one model generation. Hot swaps replace the whole Engine
// (WithChain derives a new generation sharing the map and prior), which
// is what lets the serving layer pair each generation with exactly one
// cache: a swapped-out model's answers die with its generation instead
// of leaking across the swap.
package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"lumos5g"
	"lumos5g/internal/features"
	"lumos5g/internal/geo"
	"lumos5g/internal/wire"
)

// Prediction is the engine's answer record under the name the
// benchmark module (e2ebench) uses for it.
type Prediction = wire.Result

// Engine is one immutable model generation: the published throughput
// map, the (possibly nil) fallback chain, and the map-wide prior that
// backs last-ditch answers. Immutability is the concurrency story —
// an Engine is safe to share without locks, and a hot swap is a pointer
// replacement in the layer above.
type Engine struct {
	tm    *lumos5g.ThroughputMap
	chain *lumos5g.FallbackChain // nil = map-only degraded serving
	prior float64
}

// New builds an engine generation for the map and (optionally nil)
// chain. The prior is the sample-weighted map-wide mean throughput.
func New(tm *lumos5g.ThroughputMap, chain *lumos5g.FallbackChain) (*Engine, error) {
	if tm == nil {
		return nil, fmt.Errorf("engine: nil throughput map")
	}
	return &Engine{tm: tm, chain: chain, prior: MapMean(tm)}, nil
}

// WithChain derives the next model generation: same map and prior, new
// chain (nil returns the engine to map-only serving).
func (e *Engine) WithChain(chain *lumos5g.FallbackChain) *Engine {
	return &Engine{tm: e.tm, chain: chain, prior: e.prior}
}

// Chain returns the serving fallback chain (nil when map-only).
func (e *Engine) Chain() *lumos5g.FallbackChain { return e.chain }

// Map returns the published throughput map.
func (e *Engine) Map() *lumos5g.ThroughputMap { return e.tm }

// MapPrior is the map-wide mean throughput backing last-ditch answers
// and single-predictor chain priors. Constant across WithChain swaps.
func (e *Engine) MapPrior() float64 { return e.prior }

// MapMean is the sample-weighted mean throughput across all map cells,
// floored at 1 Mbps so it stays a usable chain prior. Cells with
// non-finite means are skipped — a NaN check alone would still let +Inf
// through the sum and out as an Inf prior, which has no JSON encoding.
func MapMean(tm *lumos5g.ThroughputMap) float64 {
	var sum float64
	var n int
	for _, c := range tm.Cells {
		if c.N > 0 && !math.IsNaN(c.MeanMbps) && !math.IsInf(c.MeanMbps, 0) {
			sum += c.MeanMbps * float64(c.N)
			n += c.N
		}
	}
	if n == 0 || sum <= float64(n) || math.IsInf(sum, 0) {
		return 1
	}
	return sum / float64(n)
}

// QueryOf assembles the fallback-chain query from one prediction
// request. Optional parameters that are absent stay unset — the chain
// demotes the query to a tier that does not need them. It is the one
// builder of serving rows: whatever scores the chain as /predict would
// (the ingest refit gate) builds its rows here too.
func QueryOf(px geo.Pixel, speed, bearing *float64) features.Query {
	var q features.Query
	q.Set(features.ColPixelX, float64(px.X))
	q.Set(features.ColPixelY, float64(px.Y))
	if speed != nil {
		q.Set(features.ColMovingSpeed, *speed)
	}
	if bearing != nil {
		rad := math.Pi / 180
		q.Set(features.ColCompassSin, math.Sin(*bearing*rad))
		q.Set(features.ColCompassCos, math.Cos(*bearing*rad))
	}
	return q
}

// MapOnly answers a prediction from the throughput map alone —
// model-less degraded serving (Fig 3c's whole premise). The map carries
// no calibration, so the band is the degenerate zero-width triple.
func (e *Engine) MapOnly(px geo.Pixel) wire.Result {
	p := wire.Result{Tier: -1, Degraded: true}
	// A degenerate cell (non-finite mean) falls through to the map-wide
	// prior rather than putting an unencodable value on the wire.
	if cell := e.tm.Lookup(px.X, px.Y); cell != nil && !math.IsNaN(cell.MeanMbps) && !math.IsInf(cell.MeanMbps, 0) {
		p.Mbps, p.Source = cell.MeanMbps, "map-cell"
	} else {
		p.Mbps, p.Source = e.prior, "map-mean"
	}
	p.Class = lumos5g.ClassOf(p.Mbps).String()
	p.P10, p.P90 = p.Mbps, p.Mbps
	return p
}

// fromChain converts one fallback-chain answer.
func fromChain(p lumos5g.ChainPrediction) wire.Result {
	return wire.Result{
		Mbps:        p.Mbps,
		Class:       p.Class.String(),
		Source:      p.Source,
		Tier:        p.Tier,
		Degraded:    p.Degraded,
		Missing:     p.Missing,
		P10:         p.P10,
		P90:         p.P90,
		HasInterval: p.HasInterval,
	}
}

// PredictInterval answers one query with its p10/p90 band: a chain walk
// when a model serves, the map itself otherwise. speed and bearing are
// optional sensors (nil = absent; the chain demotes the query instead
// of rejecting it).
func (e *Engine) PredictInterval(px geo.Pixel, speed, bearing *float64) wire.Result {
	if e.chain == nil {
		return e.MapOnly(px)
	}
	qs := [1]features.Query{QueryOf(px, speed, bearing)}
	var out [1]lumos5g.ChainPrediction
	e.chain.PredictQueries(qs[:], out[:])
	return fromChain(out[0])
}

// PredictIntervalBatch answers many queries in one model pass; element
// i equals PredictInterval of query i exactly. speeds and bearings run
// parallel to pxs (nil entries = absent sensors); the slices may
// themselves be nil when no query carries that sensor.
func (e *Engine) PredictIntervalBatch(pxs []geo.Pixel, speeds, bearings []*float64) []wire.Result {
	out := make([]wire.Result, len(pxs))
	if e.chain == nil {
		for i, px := range pxs {
			out[i] = e.MapOnly(px)
		}
		return out
	}
	sc := batchPool.Get().(*batchScratch)
	qs := slices.Grow(sc.qs[:0], len(pxs))[:len(pxs)]
	cps := slices.Grow(sc.cps[:0], len(pxs))[:len(pxs)]
	for i, px := range pxs {
		var sp, br *float64
		if speeds != nil {
			sp = speeds[i]
		}
		if bearings != nil {
			br = bearings[i]
		}
		qs[i] = QueryOf(px, sp, br)
	}
	e.chain.PredictQueries(qs, cps)
	for i := range cps {
		out[i] = fromChain(cps[i])
	}
	sc.qs, sc.cps = qs, cps
	batchPool.Put(sc)
	return out
}

// batchScratch is one batch's typed queries and chain answers, recycled
// across batches: the engine copies every answer out before returning,
// so neither slice outlives the call.
type batchScratch struct {
	qs  []features.Query
	cps []lumos5g.ChainPrediction
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}
