// Package ml defines the shared contracts of the Lumos5G model zoo: the
// Regressor interface every model implements, the throughput classes of
// §5.2 (low < 300 Mbps, medium 300–700, high > 700), and evaluation
// helpers. Concrete models live in the subpackages (gbdt, forest, knn,
// kriging, hm, nn).
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Regressor is a trainable throughput predictor. X is row-major
// (one feature vector per sample); y is throughput in Mbps.
type Regressor interface {
	// Fit trains the model. Implementations must reject empty or ragged
	// input and NaN features (missing values are imputed upstream by the
	// features package).
	Fit(X [][]float64, y []float64) error
	// Predict returns the estimated throughput for one feature vector.
	// Predict must only be called after a successful Fit.
	Predict(x []float64) float64
}

// Class is a throughput level (the paper's three prediction classes).
type Class int

const (
	// ClassLow is below 300 Mbps.
	ClassLow Class = iota
	// ClassMedium is 300–700 Mbps.
	ClassMedium
	// ClassHigh is above 700 Mbps.
	ClassHigh
	// NumClasses is the number of throughput classes.
	NumClasses = 3
)

// Class thresholds in Mbps (§5.2).
const (
	LowMediumThreshold  = 300.0
	MediumHighThreshold = 700.0
)

func (c Class) String() string {
	switch c {
	case ClassLow:
		return "low"
	case ClassMedium:
		return "medium"
	case ClassHigh:
		return "high"
	}
	return "?"
}

// ClassOf maps a throughput value to its class — the paper's
// post-processing step that turns regression output into classification
// (§6.1: "during postprocessing, we additionally associate our predicted
// throughput with throughput class").
func ClassOf(mbps float64) Class {
	switch {
	case mbps < LowMediumThreshold:
		return ClassLow
	case mbps <= MediumHighThreshold:
		return ClassMedium
	default:
		return ClassHigh
	}
}

// ClassesOf maps a throughput slice to class labels as ints (for the
// confusion-matrix helpers).
func ClassesOf(mbps []float64) []int {
	out := make([]int, len(mbps))
	for i, v := range mbps {
		out[i] = int(ClassOf(v))
	}
	return out
}

// ValidateXY performs the shared input validation for Fit implementations.
func ValidateXY(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return errors.New("ml: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(X), len(y))
	}
	d := len(X[0])
	if d == 0 {
		return errors.New("ml: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != d {
			return fmt.Errorf("ml: ragged row %d (%d features, want %d)", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite feature [%d][%d]", i, j)
			}
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ml: non-finite target [%d]", i)
		}
	}
	return nil
}

// BatchRegressor is implemented by models with a vectorised prediction
// fast path. PredictBatch must return exactly what Predict would return
// per row, bit for bit — it may run a compiled kernel (the tree
// ensembles flatten into internal/ml/compiled's structure-of-arrays
// layout), but every row's floats must match the interpreted Predict
// exactly. It runs on its caller's goroutine: a server's parallelism
// comes from its concurrent requests, not from splitting one.
type BatchRegressor interface {
	PredictBatch(X [][]float64) []float64
}

// PredictAll runs Predict over every row, taking the batch fast path
// when the model offers one. The result is identical either way.
func PredictAll(r Regressor, X [][]float64) []float64 {
	if b, ok := r.(BatchRegressor); ok {
		return b.PredictBatch(X)
	}
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = r.Predict(row)
	}
	return out
}
