package main

import (
	"math"

	"lumos5g/internal/stats"
)

// tail is one reported percentile with the sample it stands on. Every
// percentile the benchmark reports is internal/stats.Quantile: linear
// interpolation between order statistics.
type tail struct {
	Q      float64 `json:"q"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"` // samples strictly above Value
}

func tailOf(xs []float64, q float64) tail {
	t := tail{Q: q, Value: stats.Quantile(xs, q), N: len(xs)}
	for _, x := range xs {
		if x > t.Value {
			t.Beyond++
		}
	}
	return t
}

// band is one served forecast: the p10/p50/p90 triple.
type band struct{ p10, p50, p90 float64 }

// valid reports whether a served band is usable: finite and ordered.
func (b band) valid() bool {
	for _, v := range []float64{b.p10, b.p50, b.p90} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return b.p10 <= b.p50 && b.p50 <= b.p90
}

// nominalCoverage is the share of truths a p10–p90 band should hold.
const nominalCoverage = 0.80

// intervalScore is the interval score of Gneiting & Raftery at
// α = 0.2 (the central 80% band): width plus 2/α times each miss. A
// wider band cannot lower it unless it catches the truth.
func intervalScore(b band, y float64) float64 {
	const penalty = 2 / (1 - nominalCoverage)
	s := b.p90 - b.p10
	if y < b.p10 {
		s += penalty * (b.p10 - y)
	}
	if y > b.p90 {
		s += penalty * (y - b.p90)
	}
	return s
}

// quality scores served bands against the truth, one row each.
type quality struct {
	N             int     `json:"n"`
	MAE           float64 `json:"mae_mbps"`
	Coverage      float64 `json:"coverage"`
	CoverageGap   float64 `json:"coverage_gap"`
	IntervalScore float64 `json:"interval_score_mbps"`
}

func scoreQuality(bands []band, truth []float64) quality {
	q := quality{N: len(bands)}
	if q.N == 0 {
		return q
	}
	var absErr, covered, is float64
	for i, b := range bands {
		y := truth[i]
		absErr += math.Abs(b.p50 - y)
		if b.p10 <= y && y <= b.p90 {
			covered++
		}
		is += intervalScore(b, y)
	}
	n := float64(q.N)
	q.MAE = absErr / n
	q.Coverage = covered / n
	q.CoverageGap = math.Abs(q.Coverage - nominalCoverage)
	q.IntervalScore = is / n
	return q
}
