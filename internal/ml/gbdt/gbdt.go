// Package gbdt implements gradient boosted decision trees — the paper's
// classical ML model of choice (§5.2): least-squares gradient boosting
// with depth-bounded trees, shrinkage, stochastic row subsampling, and
// global feature importance reporting (Fig 22). Classification follows the
// paper's post-processing route: the regressor's output is mapped to
// throughput classes.
package gbdt

import (
	"errors"

	"lumos5g/internal/ml"
	"lumos5g/internal/ml/compiled"
	"lumos5g/internal/ml/tree"
	"lumos5g/internal/rng"
)

// Config holds the boosting hyper-parameters. The paper uses 8000
// estimators of depth 8 with learning rate 0.01 (§6.1); the defaults here
// are scaled down to keep the benchmark harness tractable while
// preserving model orderings (see EXPERIMENTS.md).
type Config struct {
	// Estimators is the number of boosting rounds. <=0 means 200.
	Estimators int
	// LearningRate is the shrinkage factor. <=0 means 0.08.
	LearningRate float64
	// MaxDepth bounds each tree. <=0 means 6.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf. <=0 means 8.
	MinLeaf int
	// Subsample is the row fraction per round (stochastic gradient
	// boosting). <=0 or >1 means 0.8.
	Subsample float64
	// Seed drives subsampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Estimators <= 0 {
		c.Estimators = 200
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.08
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 8
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 0.8
	}
	return c
}

// Model is a fitted GBDT regressor.
type Model struct {
	cfg      Config
	base     float64
	trees    []*tree.Tree
	nFeat    int
	featGain []float64
	// comp is the flattened inference kernel built by Fit/Load —
	// bit-identical to walking trees (see internal/ml/compiled) and used
	// by PredictBatch as the serving fast path.
	comp *compiled.Ensemble
}

// New creates an unfitted model.
func New(cfg Config) *Model {
	return &Model{cfg: cfg.withDefaults()}
}

// Fit trains the boosted ensemble. Refitting an already fitted model
// behaves exactly like fitting a fresh one: all state from the previous
// fit is discarded, and on error the previous model is left in place
// untouched.
func (m *Model) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	cfg := m.cfg
	nFeat := len(X[0])
	featGain := make([]float64, nFeat)
	trees := make([]*tree.Tree, 0, cfg.Estimators)

	// Base prediction: the target mean, the constant minimiser of
	// squared loss.
	var sum float64
	for _, v := range y {
		sum += v
	}
	base := sum / float64(len(y))

	binner := tree.NewBinner(X, tree.MaxBins)
	binned := binner.BinMatrix(X)

	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = base
	}
	resid := make([]float64, len(y))
	src := rng.New(cfg.Seed).SplitLabeled("gbdt")
	nSub := int(cfg.Subsample * float64(len(y)))
	if nSub < 2 {
		nSub = len(y)
	}

	// One index buffer and one grower serve every round: drawRows
	// refills the buffer, the grower partitions its in-bag head in
	// place, and the out-of-bag tail stays as drawn.
	idx := make([]int, len(y))
	var g tree.Grower
	for round := 0; round < cfg.Estimators; round++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		t, err := g.Grow(binned, binner, resid, drawRows(idx, nSub, src), tree.Options{
			MaxDepth: cfg.MaxDepth,
			MinLeaf:  cfg.MinLeaf,
		})
		if err != nil {
			return err
		}
		// In-bag rows reached their leaves while the tree grew: credit
		// each leaf's value to its rows, the exact float PredictBinned
		// would walk them to. Rows are distinct, so each is credited once.
		for _, lf := range g.Leaves() {
			for _, i := range lf.Rows {
				pred[i] += cfg.LearningRate * lf.Value
			}
		}
		for _, i := range idx[nSub:] {
			pred[i] += cfg.LearningRate * t.PredictBinned(binned, i)
		}
		for f, gain := range t.Gain {
			featGain[f] += gain
		}
		trees = append(trees, t)
	}
	comp, err := compileModel(trees, nFeat, base, cfg.LearningRate)
	if err != nil {
		return err
	}
	m.base = base
	m.nFeat = nFeat
	m.featGain = featGain
	m.trees = trees
	m.comp = comp
	return nil
}

// compileModel flattens a fitted boosting ensemble into its serving
// kernel: acc = base; acc += lr*leaf per tree — the exact float sequence
// of Predict.
func compileModel(trees []*tree.Tree, nFeat int, base, lr float64) (*compiled.Ensemble, error) {
	return compiled.Compile(trees, compiled.Config{
		NumFeatures: nFeat,
		Init:        base,
		Scale:       lr,
	})
}

// Compiled returns the model's flattened inference kernel (nil before a
// successful Fit or Load).
func (m *Model) Compiled() *compiled.Ensemble { return m.comp }

// drawRows refills idx with 0…len(idx)−1 and draws n distinct rows into
// its head without replacement (rng's PartialShuffle), returning the
// head; the rest of idx is the out-of-bag tail. n >= len(idx) takes
// every row in order and draws nothing.
func drawRows(idx []int, n int, src *rng.Source) []int {
	for i := range idx {
		idx[i] = i
	}
	if n >= len(idx) {
		return idx
	}
	src.PartialShuffle(idx, n)
	return idx[:n]
}

// Predict returns the boosted estimate for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	v := m.base
	for _, t := range m.trees {
		v += m.cfg.LearningRate * t.Predict(x)
	}
	return v
}

// PredictBatch predicts every row of a fitted model through the
// compiled blocked kernel, on the caller's goroutine. Each element
// equals Predict of that row exactly (same tree-summation order per
// row) — the compiled kernel's equivalence contract, enforced by parity
// tests.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	return m.comp.PredictBatch(X)
}

// PredictClass maps the regression output to a throughput class.
func (m *Model) PredictClass(x []float64) ml.Class {
	return ml.ClassOf(m.Predict(x))
}

// FeatureImportance returns per-feature importance scores normalised to
// sum to 1 (Fig 22 reports them as percentages). Returns an error if the
// model is unfitted.
func (m *Model) FeatureImportance() ([]float64, error) {
	if m.featGain == nil {
		return nil, errors.New("gbdt: model not fitted")
	}
	total := 0.0
	for _, g := range m.featGain {
		total += g
	}
	out := make([]float64, len(m.featGain))
	if total == 0 {
		return out, nil
	}
	for i, g := range m.featGain {
		out[i] = g / total
	}
	return out, nil
}
