package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lumos5g/internal/stats"
)

// span is one timed call into a layer during the traced replay. Spans
// of one replayed request share Req; Parent names the layer whose call
// this one stands inside, so a layer's self time is its span minus its
// children's spans of the same request.
type span struct {
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times f as one span of layer under parent.
func (t *tracer) call(layer, parent string, rows int, f func()) {
	s := time.Since(t.t0).Nanoseconds()
	f()
	e := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Req: t.req, Layer: layer, Parent: parent, Start: s, End: e, Rows: rows})
}

// add records a span timed by the caller.
func (t *tracer) add(layer, parent string, rows int, start, end time.Time) {
	t.spans = append(t.spans, span{Req: t.req, Layer: layer, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Rows: rows})
}

// layerSelf is one layer's self time in one request.
type layerSelf struct {
	seconds float64
	rows    int
}

// selfTimes computes every layer's self time per request: its spans'
// durations minus the durations of the spans whose parent it is. Self
// times of one request add up to its outermost span exactly; a negative
// one means the ladder does not nest and is reported, never clamped.
func selfTimes(spans []span) map[string][]layerSelf {
	byReq := map[int][]span{}
	var reqs []int
	for _, s := range spans {
		if _, ok := byReq[s.Req]; !ok {
			reqs = append(reqs, s.Req)
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	out := map[string][]layerSelf{}
	for _, r := range reqs {
		ss := byReq[r]
		per := map[string]*layerSelf{}
		var order []string
		for _, s := range ss {
			ls, ok := per[s.Layer]
			if !ok {
				ls = &layerSelf{}
				per[s.Layer] = ls
				order = append(order, s.Layer)
			}
			ls.seconds += s.dur()
			ls.rows += s.Rows
		}
		for _, s := range ss {
			if s.Parent != "" {
				if p, ok := per[s.Parent]; ok {
					p.seconds -= s.dur()
				}
			}
		}
		for _, l := range order {
			out[l] = append(out[l], *per[l])
		}
	}
	return out
}

// ladder summarises a traced replay.
type ladder struct {
	Requests int `json:"requests"`
	// SelfMedian is each layer's median self time per request, seconds.
	SelfMedian map[string]float64 `json:"self_median_s"`
	// SelfMeanShare is each layer's mean self time over the mean round
	// trip: the additive split of the ladder.
	SelfMeanShare map[string]float64 `json:"self_mean_share"`
	// NegativeShare is, per layer, the share of requests whose self
	// time came out negative.
	NegativeShare map[string]float64 `json:"negative_share"`
	// Negative lists layers whose median self time is negative: the
	// ladder is broken there.
	Negative []string `json:"negative_layers"`
	// RoundTripP50 is the traced client round trip's median, seconds;
	// Closure is Σ median self times over it.
	RoundTripP50 float64 `json:"roundtrip_p50_s"`
	Closure      float64 `json:"closure"`
}

// summarize builds the ladder summary; root is the outermost layer.
func summarize(spans []span, root string) (ladder, map[string][]layerSelf) {
	self := selfTimes(spans)
	l := ladder{
		SelfMedian:    map[string]float64{},
		SelfMeanShare: map[string]float64{},
		NegativeShare: map[string]float64{},
		Negative:      []string{},
	}
	var rt []float64
	for _, s := range spans {
		if s.Layer == root {
			rt = append(rt, s.dur())
		}
	}
	l.Requests = len(rt)
	if len(rt) == 0 {
		return l, self
	}
	var rtSum float64
	for _, v := range rt {
		rtSum += v
	}
	l.RoundTripP50 = stats.Quantile(rt, 0.5)
	var medSum float64
	layers := make([]string, 0, len(self))
	for k := range self {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, k := range layers {
		vals := make([]float64, len(self[k]))
		neg := 0
		var sum float64
		for i, v := range self[k] {
			vals[i] = v.seconds
			sum += v.seconds
			if v.seconds < 0 {
				neg++
			}
		}
		med := stats.Quantile(vals, 0.5)
		l.SelfMedian[k] = med
		l.SelfMeanShare[k] = sum / rtSum
		l.NegativeShare[k] = float64(neg) / float64(len(vals))
		if med < 0 {
			l.Negative = append(l.Negative, k)
		}
		medSum += med
	}
	l.Closure = medSum / l.RoundTripP50
	return l, self
}

// medianPerRow is a layer's median self time per row, seconds.
func medianPerRow(self map[string][]layerSelf, layer string) float64 {
	vs := self[layer]
	if len(vs) == 0 {
		return math.NaN()
	}
	vals := make([]float64, 0, len(vs))
	for _, v := range vs {
		if v.rows > 0 {
			vals = append(vals, v.seconds/float64(v.rows))
		}
	}
	return stats.Quantile(vals, 0.5)
}

// medianPerReq is a layer's median self time per request, seconds.
func medianPerReq(self map[string][]layerSelf, layer string) float64 {
	vs := self[layer]
	if len(vs) == 0 {
		return math.NaN()
	}
	vals := make([]float64, len(vs))
	for i, v := range vs {
		vals[i] = v.seconds
	}
	return stats.Quantile(vals, 0.5)
}

// writeSpans writes the spans, one JSON object per line, under the
// checkout's .bench_build directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
