package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution: observations land in the
// first bucket whose upper bound is >= the value (cumulative "le"
// semantics on export), with one implicit +Inf overflow bucket. All
// operations are lock-free; Observe is a handful of atomic adds.
//
// Besides the Prometheus summary pair (sum, count) it tracks the
// observed min and max, which anchor Quantile's interpolation at the
// distribution's edges the way a sorted sample does.
type Histogram struct {
	upper   []float64 // sorted, strictly increasing upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until first observation
	maxBits atomic.Uint64 // -Inf until first observation
}

// DefLatencyBuckets spans sub-millisecond handler latencies up to the
// 10 s request timeout (seconds).
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(upper []float64) *Histogram {
	if len(upper) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(upper); i++ {
		if !(upper[i] > upper[i-1]) {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	for _, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
	}
	h := &Histogram{
		upper:   append([]float64(nil), upper...),
		buckets: make([]atomic.Uint64, len(upper)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. NaN observations are dropped — they carry
// no rank information and would poison the sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.buckets[h.bucketIdx(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	casMin(&h.minBits, v)
	casMax(&h.maxBits, v)
}

// bucketIdx is a binary search over the upper bounds: the first bound
// >= v, or the overflow slot.
func (h *Histogram) bucketIdx(v float64) int {
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.upper[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts (one per bound, then +Inf),
// plus sum and count, read without a lock. The counts are monotone and
// each is read once, so the snapshot is a valid (if slightly stale
// under concurrent writes) histogram.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	cum = make([]uint64, len(h.buckets))
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return cum, h.Sum(), cum[len(cum)-1]
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank. Rank semantics follow internal/stats.Quantile
// (pos = q·(n−1) over order statistics), so against the same samples
// the estimate differs from the exact value by at most the width of
// the covering bucket. The interpolation is anchored at the observed
// min and max, making single-bucket and edge quantiles exact at q=0/1.
// Returns NaN when nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	cum, _, n := h.snapshot()
	if n == 0 {
		return math.NaN()
	}
	mn := math.Float64frombits(h.minBits.Load())
	mx := math.Float64frombits(h.maxBits.Load())
	if q <= 0 {
		return mn
	}
	if q >= 1 {
		return mx
	}
	// Target the fractional order statistic pos in [0, n-1], then find
	// the bucket whose cumulative count covers rank pos.
	pos := q * float64(n-1)
	var idx int
	for idx = 0; idx < len(cum); idx++ {
		if float64(cum[idx]) > pos {
			break
		}
	}
	if idx >= len(cum) {
		return mx
	}
	lower := mn
	if idx > 0 {
		lower = math.Max(h.upper[idx-1], mn)
	}
	upper := mx
	if idx < len(h.upper) {
		upper = math.Min(h.upper[idx], mx)
	}
	if upper < lower {
		upper = lower
	}
	var before uint64
	if idx > 0 {
		before = cum[idx-1]
	}
	inBucket := cum[idx] - before
	if inBucket == 0 {
		return lower
	}
	frac := (pos - float64(before)) / float64(inBucket)
	return lower + (upper-lower)*frac
}

func (h *Histogram) samples(dst []sample) []sample {
	cum, sum, count := h.snapshot()
	return append(dst, sample{
		isHist: true,
		bounds: h.upper,
		counts: cum,
		sum:    sum,
		count:  count,
	})
}

// addFloat atomically adds d to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		niu := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, niu) {
			return
		}
	}
}

func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
