package lumos5g

import (
	"math"
	"reflect"
	"testing"
)

// batchTestQueries exercises every serving path of a chain: tier 0, a
// demotion to tier 1, deep demotion, the last resort with and without
// usable history, and nil/empty queries.
func batchTestQueries(d *Dataset) []map[string]float64 {
	full := fullQuery(d)

	noModem := fullQuery(d)
	delete(noModem, "ss_rsrp")

	locOnly := map[string]float64{
		"pixel_x": full["pixel_x"], "pixel_y": full["pixel_y"],
		"past_tput_last": 480,
	}

	histOnly := map[string]float64{"past_tput_hmean": 350}
	badHist := map[string]float64{"past_tput_hmean": math.NaN()}

	return []map[string]float64{
		full, noModem, locOnly, histOnly, badHist, nil, {},
		full, noModem, // repeats: counters must add up per serving tier
	}
}

// TestPredictBatchMatchesPredict is the batch-path parity audit: same
// answers, same tier attribution, same served-counter totals as the
// per-query loop.
func TestPredictBatchMatchesPredict(t *testing.T) {
	c, d := trainTestChain(t)
	qs := batchTestQueries(d)

	base := c.ServedCounts()
	want := make([]ChainPrediction, len(qs))
	for i, q := range qs {
		want[i] = c.PredictInterval(q)
	}
	afterSerial := c.ServedCounts()

	got := c.PredictIntervalBatch(qs)
	afterBatch := c.ServedCounts()

	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d: batch %+v != serial %+v", i, got[i], want[i])
		}
	}
	for tier := range base {
		serialDelta := afterSerial[tier] - base[tier]
		batchDelta := afterBatch[tier] - afterSerial[tier]
		if serialDelta != batchDelta {
			t.Fatalf("tier %d: batch served %d queries, serial served %d", tier, batchDelta, serialDelta)
		}
	}
}

// TestPredictBatchEmptyAndZeroTier covers the degenerate shapes.
func TestPredictBatchEmptyAndZeroTier(t *testing.T) {
	c, _ := trainTestChain(t)
	if got := c.PredictIntervalBatch(nil); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}

	bare, err := NewFallbackChain(123)
	if err != nil {
		t.Fatal(err)
	}
	got := bare.PredictIntervalBatch([]map[string]float64{nil, {"past_tput_last": 200}})
	for i, p := range got {
		if want := bare.PredictInterval([]map[string]float64{nil, {"past_tput_last": 200}}[i]); !reflect.DeepEqual(p, want) {
			t.Fatalf("tierless chain query %d: batch %+v != serial %+v", i, p, want)
		}
	}
	if got[0].Source != LastResortGroup || got[1].Mbps != 200 {
		t.Fatalf("tierless batch answers: %+v", got)
	}
}
