package lumos5g

import (
	"errors"
	"fmt"

	"lumos5g/internal/core"
	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/compiled"
)

// Predictor is a trained throughput model bound to a feature group — the
// artifact an application would download alongside a throughput map
// (§2.3) and query for bandwidth decisions.
type Predictor struct {
	group FeatureGroup
	model Model
	reg   ml.Regressor
	names []string
	// ival holds split-conformal residual offsets when the predictor was
	// calibrated (TrainCalibrated, or Calibrate on held-out rows); nil
	// means PredictInterval serves degenerate zero-width bands.
	ival *ml.ConformalOffsets
}

// ErrNoUsableRows is returned (wrapped) by Train when the dataset yields
// no rows under the requested feature group — e.g. a tower group on an
// area whose panels were never surveyed.
var ErrNoUsableRows = errors.New("no usable rows")

// Train fits a model (KNN, RF, OK, GDBT, LSTM or Seq2Seq) on the whole
// dataset under the feature group and returns a reusable Predictor. The
// recurrent models train on length-1 sequences of the same tabular
// features and serve through the compiled inference kernel
// (internal/ml/compiled), so the paper's most accurate model class
// answers point queries like any ensemble. For train/test *evaluation*,
// use Evaluate instead — Train deliberately uses every sample, as a
// production model would.
func Train(d *Dataset, g FeatureGroup, m Model, sc Scale) (*Predictor, error) {
	mat := features.Build(d, g)
	if len(mat.X) == 0 {
		return nil, fmt.Errorf("lumos5g: %w for %s", ErrNoUsableRows, g)
	}
	reg, err := core.NewRegressor(m, sc)
	if err != nil {
		return nil, err
	}
	if err := reg.Fit(mat.X, mat.Y); err != nil {
		return nil, err
	}
	return &Predictor{group: g, model: m, reg: reg, names: mat.Names}, nil
}

// TrainCalibrated fits a model on the train side of the evaluation
// split (core.SplitMatrix, the seeded 70/30 split Evaluate and the
// experiments lab score on) and conformally calibrates its residual
// offsets on the held-out side, so PredictInterval serves bands with
// honest finite-sample coverage. The point model sees only
// dataset.TrainFrac of the data — that is the price of an
// uncontaminated calibration set. When the holdout is too small to
// calibrate, the predictor falls back to a full-data fit with no
// offsets (degenerate intervals) rather than failing.
func TrainCalibrated(d *Dataset, g FeatureGroup, m Model, sc Scale) (*Predictor, error) {
	mat := features.Build(d, g)
	if len(mat.X) == 0 {
		return nil, fmt.Errorf("lumos5g: %w for %s", ErrNoUsableRows, g)
	}
	trainX, trainY, calX, calY := core.SplitMatrix(mat, sc.Seed)
	if len(trainY) < 2 || len(calY) < ml.MinCalibration {
		return Train(d, g, m, sc)
	}
	reg, err := core.NewRegressor(m, sc)
	if err != nil {
		return nil, err
	}
	if err := reg.Fit(trainX, trainY); err != nil {
		return nil, err
	}
	p := &Predictor{group: g, model: m, reg: reg, names: mat.Names}
	off, err := ml.CalibrateConformal(ml.PredictAll(reg, calX), calY)
	if err != nil {
		return nil, fmt.Errorf("lumos5g: calibrate %s: %w", g, err)
	}
	p.ival = &off
	return p, nil
}

// SetConformalOffsets attaches pre-computed calibration offsets (the
// artifact-load path). Non-finite offsets are rejected.
func (p *Predictor) SetConformalOffsets(o ml.ConformalOffsets) error {
	if !o.Valid() {
		return fmt.Errorf("lumos5g: non-finite conformal offsets %+v", o)
	}
	p.ival = &o
	return nil
}

// PredictInterval returns the p10/p50/p90 band for one feature vector:
// the point prediction plus conformal residual offsets, with
// p10 <= p50 <= p90 enforced. Uncalibrated predictors return the
// zero-width band at the point prediction.
func (p *Predictor) PredictInterval(x []float64) ml.Interval {
	mid := p.predictOne(x)
	if p.ival == nil {
		return ml.Degenerate(mid)
	}
	return p.ival.Interval(mid)
}

// Group returns the predictor's feature group.
func (p *Predictor) Group() FeatureGroup { return p.group }

// Model returns the predictor's model family.
func (p *Predictor) Model() Model { return p.model }

// FeatureNames returns the expected feature column order for Predict.
func (p *Predictor) FeatureNames() []string {
	return append([]string(nil), p.names...)
}

// Predict estimates throughput for one raw feature vector (in the order
// of FeatureNames).
func (p *Predictor) Predict(x []float64) float64 { return p.predictOne(x) }

// PredictClass maps Predict's output to a throughput class.
func (p *Predictor) PredictClass(x []float64) Class { return ml.ClassOf(p.predictOne(x)) }

// compiledModel is a fitted ensemble with a compiled inference kernel
// (gbdt.Model, forest.Model).
type compiledModel interface {
	Compiled() *compiled.Ensemble
}

// predictOne answers one feature row through the model's compiled
// one-row kernel when it has one — bit-identical to the model's own
// Predict, which stays the interpreted parity oracle — and through the
// model's Predict otherwise.
func (p *Predictor) predictOne(x []float64) float64 {
	if m, ok := p.reg.(compiledModel); ok {
		if e := m.Compiled(); e != nil {
			return e.Predict(x)
		}
	}
	return p.reg.Predict(x)
}

// PredictBatch estimates throughput for many raw feature vectors at
// once, taking the model's vectorised fast path when it has one. Each
// element equals Predict of that row exactly.
func (p *Predictor) PredictBatch(X [][]float64) []float64 {
	return ml.PredictAll(p.reg, X)
}

// PredictDataset vectorises d under the predictor's feature group and
// returns the per-row predictions along with the record indices they
// correspond to.
func (p *Predictor) PredictDataset(d *Dataset) (pred []float64, recordIdx []int) {
	mat := features.Build(d, p.group)
	return ml.PredictAll(p.reg, mat.X), mat.RecordIdx
}
