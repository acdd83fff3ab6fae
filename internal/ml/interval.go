package ml

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Interval is a central prediction interval around a point estimate:
// P50 is the served point prediction and [P10, P90] the nominal 80%
// band. Construction sites enforce P10 <= P50 <= P90.
type Interval struct {
	P10 float64
	P50 float64
	P90 float64
}

// ConformalOffsets holds split-conformal residual quantiles: additive
// corrections that turn a point prediction into a distribution-free
// interval. Lo is the 10th percentile of holdout residuals (y - pred,
// usually negative), Hi the 90th. The offsets are computed once on a
// calibration split the model never trained on, so the band's coverage
// is honest rather than an artifact of training-set fit.
type ConformalOffsets struct {
	Lo float64
	Hi float64
}

// ErrCalibration reports an unusable calibration set.
var ErrCalibration = errors.New("ml: calibration set unusable")

// MinCalibration is the smallest calibration split that yields a
// meaningful finite-sample quantile at the 10%/90% marks.
const MinCalibration = 8

// CalibrateConformal computes asymmetric split-conformal offsets from
// point predictions and ground truth on a held-out calibration set.
// The finite-sample ranks are the conservative conformal choice —
// ceil((n+1)*0.9) for the upper tail, floor((n+1)*0.1) for the lower —
// so the nominal 80% band covers at least ~80% of exchangeable future
// residuals rather than approximately-at-best.
func CalibrateConformal(preds, ys []float64) (ConformalOffsets, error) {
	if len(preds) != len(ys) {
		return ConformalOffsets{}, fmt.Errorf("%w: %d predictions vs %d truths", ErrCalibration, len(preds), len(ys))
	}
	if len(preds) < MinCalibration {
		return ConformalOffsets{}, fmt.Errorf("%w: %d rows (need >= %d)", ErrCalibration, len(preds), MinCalibration)
	}
	resid := make([]float64, len(preds))
	for i := range preds {
		r := ys[i] - preds[i]
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return ConformalOffsets{}, fmt.Errorf("%w: non-finite residual at row %d", ErrCalibration, i)
		}
		resid[i] = r
	}
	sort.Float64s(resid)
	return ConformalOffsets{
		Lo: conformalRank(resid, 0.10),
		Hi: conformalRank(resid, 0.90),
	}, nil
}

// conformalRank returns the finite-sample conformal quantile of a
// sorted residual slice: rank ceil((n+1)q) for the upper tail and its
// mirror floor((n+1)q) for the lower, both clamped into [1, n].
func conformalRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	var k int
	if q >= 0.5 {
		k = int(math.Ceil(float64(n+1) * q))
	} else {
		k = int(math.Floor(float64(n+1) * q))
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// Interval applies the offsets to a point prediction. Ordering is
// enforced by clamping each bound against the midpoint, so the result
// satisfies P10 <= P50 <= P90 even for degenerate or biased offsets.
func (o ConformalOffsets) Interval(mid float64) Interval {
	iv := Interval{P10: mid + o.Lo, P50: mid, P90: mid + o.Hi}
	if iv.P10 > mid {
		iv.P10 = mid
	}
	if iv.P90 < mid {
		iv.P90 = mid
	}
	return iv
}

// Valid reports whether both offsets are finite — the artifact-load
// guard against corrupt or hostile serialized calibrations.
func (o ConformalOffsets) Valid() bool {
	return !math.IsNaN(o.Lo) && !math.IsInf(o.Lo, 0) &&
		!math.IsNaN(o.Hi) && !math.IsInf(o.Hi, 0)
}

// Degenerate returns the zero-width interval at mid: the served shape
// when no calibration exists (uncalibrated artifacts, map-only
// answers). Zero width states "no uncertainty estimate" explicitly
// while keeping the ordering contract intact.
func Degenerate(mid float64) Interval {
	return Interval{P10: mid, P50: mid, P90: mid}
}
