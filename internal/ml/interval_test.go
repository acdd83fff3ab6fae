package ml

import (
	"errors"
	"math"
	"testing"

	"lumos5g/internal/rng"
)

func TestCalibrateConformalKnownResiduals(t *testing.T) {
	// 99 residuals -5.0, -4.9, ..., +4.8 around perfect predictions:
	// conformal ranks for n=99 are floor(100*0.1)=10 and ceil(100*0.9)=90.
	preds := make([]float64, 99)
	ys := make([]float64, 99)
	for i := range preds {
		preds[i] = 100
		ys[i] = 100 + (float64(i)-50)/10
	}
	off, err := CalibrateConformal(preds, ys)
	if err != nil {
		t.Fatal(err)
	}
	wantLo := (10.0 - 51) / 10 // 10th smallest residual
	wantHi := (90.0 - 51) / 10 // 90th smallest residual
	if math.Abs(off.Lo-wantLo) > 1e-12 || math.Abs(off.Hi-wantHi) > 1e-12 {
		t.Fatalf("offsets = %+v, want Lo=%v Hi=%v", off, wantLo, wantHi)
	}
	iv := off.Interval(500)
	if !iv.Ordered() {
		t.Fatalf("interval not ordered: %+v", iv)
	}
	if iv.P10 != 500+off.Lo || iv.P90 != 500+off.Hi || iv.P50 != 500 {
		t.Fatalf("interval = %+v", iv)
	}
}

func TestCalibrateConformalErrors(t *testing.T) {
	if _, err := CalibrateConformal([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrCalibration) {
		t.Fatalf("length mismatch: err = %v", err)
	}
	if _, err := CalibrateConformal(make([]float64, 3), make([]float64, 3)); !errors.Is(err, ErrCalibration) {
		t.Fatalf("too few rows: err = %v", err)
	}
	bad := []float64{1, 2, 3, 4, 5, 6, 7, math.NaN()}
	if _, err := CalibrateConformal(bad, make([]float64, 8)); !errors.Is(err, ErrCalibration) {
		t.Fatalf("NaN residual: err = %v", err)
	}
}

// TestConformalIntervalOrderingFuzzed drives Interval with hostile
// offsets (inverted, both-positive, both-negative) and random
// midpoints: the clamps must keep p10 <= p50 <= p90 everywhere.
func TestConformalIntervalOrderingFuzzed(t *testing.T) {
	src := rng.New(7)
	for i := 0; i < 5000; i++ {
		off := ConformalOffsets{Lo: src.Range(-50, 50), Hi: src.Range(-50, 50)}
		iv := off.Interval(src.Range(-1000, 3000))
		if !iv.Ordered() {
			t.Fatalf("unordered interval %+v from offsets %+v", iv, off)
		}
	}
}

// TestConformalCoverage checks the honest-coverage property the whole
// design exists for: offsets calibrated on one split of an i.i.d.
// stream cover ~80% of a fresh split.
func TestConformalCoverage(t *testing.T) {
	src := rng.New(11)
	gen := func(n int) (preds, ys []float64) {
		preds = make([]float64, n)
		ys = make([]float64, n)
		for i := range preds {
			preds[i] = src.Range(0, 1000)
			ys[i] = preds[i] + src.NormMeanStd(0, 40)
		}
		return
	}
	calP, calY := gen(600)
	off, err := CalibrateConformal(calP, calY)
	if err != nil {
		t.Fatal(err)
	}
	testP, testY := gen(4000)
	covered := 0
	for i := range testP {
		iv := off.Interval(testP[i])
		if testY[i] >= iv.P10 && testY[i] <= iv.P90 {
			covered++
		}
	}
	frac := float64(covered) / float64(len(testP))
	if frac < 0.74 || frac > 0.88 {
		t.Fatalf("empirical coverage %.3f outside [0.74, 0.88]", frac)
	}
}

func TestDegenerateAndValid(t *testing.T) {
	iv := Degenerate(42)
	if !iv.Ordered() || iv.P10 != 42 || iv.P90 != 42 {
		t.Fatalf("degenerate = %+v", iv)
	}
	if (ConformalOffsets{Lo: math.NaN()}).Valid() {
		t.Fatal("NaN offsets reported valid")
	}
	if (ConformalOffsets{Hi: math.Inf(1)}).Valid() {
		t.Fatal("Inf offsets reported valid")
	}
	if !(ConformalOffsets{Lo: -3, Hi: 4}).Valid() {
		t.Fatal("finite offsets reported invalid")
	}
}

// Ordered reports whether the interval satisfies the serving contract
// p10 <= p50 <= p90 with all three bounds finite.
func (iv Interval) Ordered() bool {
	return !math.IsNaN(iv.P10) && !math.IsInf(iv.P10, 0) &&
		!math.IsNaN(iv.P50) && !math.IsInf(iv.P50, 0) &&
		!math.IsNaN(iv.P90) && !math.IsInf(iv.P90, 0) &&
		iv.P10 <= iv.P50 && iv.P50 <= iv.P90
}
