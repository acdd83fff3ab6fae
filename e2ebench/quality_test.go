package main

import (
	"math"
	"reflect"
	"testing"

	"lumos5g/internal/stats"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestQuantileHandComputed(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},           // pos 1.5 between 2 and 3
		{[]float64{10, 20, 30, 40, 50}, 0.99, 49.6}, // pos 3.96: 40 + 0.96·10
		{[]float64{10, 20, 30, 40, 50}, 0.5, 30},
		{[]float64{7}, 0.99, 7},
	}
	for _, c := range cases {
		if got := stats.Quantile(c.xs, c.q); !near(got, c.want) {
			t.Errorf("stats.Quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	tl := tailOf([]float64{10, 20, 30, 40, 50}, 0.99)
	if tl.N != 5 || tl.Beyond != 1 || !near(tl.Value, 49.6) {
		t.Errorf("tailOf = %+v, want value 49.6, n 5, beyond 1", tl)
	}
}

func TestIntervalScoreHandComputed(t *testing.T) {
	b := band{p10: 10, p50: 20, p90: 30}
	cases := []struct{ y, want float64 }{
		{25, 20},            // inside: the width alone
		{30, 20},            // on the upper edge counts as inside
		{5, 20 + 10*(10-5)}, // below p10: 2/α = 10 per Mbps missed
		{33, 20 + 10*(33-30)},
	}
	for _, c := range cases {
		if got := intervalScore(b, c.y); !near(got, c.want) {
			t.Errorf("intervalScore(%+v, %v) = %v, want %v", b, c.y, got, c.want)
		}
	}
	// Widening the band around a truth it already holds only costs.
	if wide := (band{p10: 0, p50: 20, p90: 40}); intervalScore(wide, 25) <= intervalScore(b, 25) {
		t.Errorf("a wider band scored no worse on a covered truth")
	}
}

func TestScoreQualityHandComputed(t *testing.T) {
	b := band{p10: 10, p50: 20, p90: 30}
	q := scoreQuality([]band{b, b, b, b}, []float64{25, 5, 33, 30})
	want := quality{
		N:             4,
		MAE:           (5 + 15 + 13 + 10) / 4.0,
		Coverage:      0.5, // 25 and 30 lie in [10, 30]
		CoverageGap:   0.3, // |0.5 − 0.8|
		IntervalScore: (20 + 70 + 50 + 20) / 4.0,
	}
	if q.N != want.N || !near(q.MAE, want.MAE) || !near(q.Coverage, want.Coverage) ||
		!near(q.CoverageGap, want.CoverageGap) || !near(q.IntervalScore, want.IntervalScore) {
		t.Errorf("scoreQuality = %+v, want %+v", q, want)
	}
}

func TestBandValid(t *testing.T) {
	for _, c := range []struct {
		b    band
		want bool
	}{
		{band{1, 2, 3}, true},
		{band{2, 2, 2}, true},
		{band{3, 2, 4}, false},
		{band{1, 2, math.Inf(1)}, false},
		{band{math.NaN(), 2, 3}, false},
	} {
		if got := c.b.valid(); got != c.want {
			t.Errorf("%+v.valid() = %v, want %v", c.b, got, c.want)
		}
	}
}

// A child span longer than its parent must come out as a negative self
// time and be flagged, never clamped; self times still add up to the
// round trip.
func TestLadderFlagsNegativeSelf(t *testing.T) {
	spans := []span{
		{Req: 0, Layer: "transport", Start: 0, End: 100, Rows: 1},
		{Req: 0, Layer: "fleet", Parent: "transport", Start: 10, End: 90, Rows: 1},
		{Req: 0, Layer: "mapserver", Parent: "fleet", Start: 5, End: 95, Rows: 1},
	}
	l, self := summarize(spans, "transport")
	if got := self["fleet"][0].seconds; !near(got, -10e-9) {
		t.Errorf("fleet self = %v s, want -10 ns", got)
	}
	if !reflect.DeepEqual(l.Negative, []string{"fleet"}) {
		t.Errorf("negative layers = %v, want [fleet]", l.Negative)
	}
	if !near(l.Closure, 1) {
		t.Errorf("closure = %v, want 1 (self times add up to the round trip)", l.Closure)
	}
}

func TestLookaheadChunksEqualSize(t *testing.T) {
	var rows []row
	for ue, n := range []int{5, 2, 3} { // UE 1 is shorter than a request
		for i := 0; i < n; i++ {
			rows = append(rows, row{ue: ue})
		}
	}
	chunks, covered := lookaheadChunks(rows, 3)
	want := [][]int{{0, 1, 2}, {7, 8, 9}, {2, 3, 4}}
	if !reflect.DeepEqual(chunks, want) {
		t.Errorf("chunks = %v, want %v", chunks, want)
	}
	if !reflect.DeepEqual(covered, []int{0, 1, 2, 3, 4, 7, 8, 9}) {
		t.Errorf("covered = %v", covered)
	}
}

func TestPredictBand(t *testing.T) {
	body := []byte(`{"mbps":172.5,"p10":0,"p50":172.5,"p90":574.25,"class":"low","tier":1}` + "\n")
	b, err := predictBand(body)
	if err != nil || b != (band{p10: 0, p50: 172.5, p90: 574.25}) {
		t.Errorf("predictBand = %+v, %v", b, err)
	}
	if _, err := predictBand([]byte(`{"mbps":1,"p10":2,"p50":1,"p90":3}`)); err == nil {
		t.Error("predictBand accepted p10 > p50")
	}
	if _, err := predictBand([]byte(`{"mbps":1,"p50":1,"p90":3}`)); err == nil {
		t.Error("predictBand accepted a missing p10")
	}
}
