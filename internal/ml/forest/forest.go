// Package forest implements a random-forest regressor, one of the
// 3G/4G-era baselines the paper compares against (Alimpertis et al. [20]
// used random forests for city-wide LTE signal-strength maps).
package forest

import (
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/compiled"
	"lumos5g/internal/ml/tree"
	"lumos5g/internal/par"
	"lumos5g/internal/rng"
)

// Config holds forest hyper-parameters.
type Config struct {
	// Trees is the ensemble size. <=0 means 50.
	Trees int
	// MaxDepth bounds each tree. <=0 means 12.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf. <=0 means 3.
	MinLeaf int
	// FeatureFrac is the per-split feature fraction. <=0 means 0.6.
	FeatureFrac float64
	// Seed drives bootstrap and feature sampling.
	Seed uint64
	// Workers bounds how many trees Fit grows at once; <=0 means one
	// worker per CPU. The fitted model is bit-identical for every worker
	// count: each tree draws from its own pre-split rng stream and the
	// trees are assembled in index order.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 3
	}
	if c.FeatureFrac <= 0 || c.FeatureFrac > 1 {
		c.FeatureFrac = 0.6
	}
	return c
}

// Model is a fitted random forest.
type Model struct {
	cfg   Config
	trees []*tree.Tree
	// comp is the flattened inference kernel built by Fit — bit-identical
	// to walking trees (see internal/ml/compiled) and used by
	// PredictBatch as the serving fast path.
	comp *compiled.Ensemble
}

// New creates an unfitted forest.
func New(cfg Config) *Model {
	return &Model{cfg: cfg.withDefaults()}
}

// Fit trains the ensemble on bootstrap resamples. Refitting an already
// fitted model behaves exactly like fitting a fresh one: all state from
// the previous fit is discarded, and on error the previous ensemble is
// left in place untouched.
//
// The bootstrap rows and the per-tree rng streams are drawn serially
// from the seed stream in tree order — the exact sequence the serial
// implementation consumed — and only the tree growth itself fans out,
// so the fitted ensemble is bit-identical for every Workers setting.
func (m *Model) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	cfg := m.cfg
	binner := tree.NewBinner(X, tree.MaxBins)
	binned := binner.BinMatrix(X)
	src := rng.New(cfg.Seed).SplitLabeled("forest")
	n := len(y)

	// Pre-draw every tree's bootstrap sample and rng stream in order.
	boots := make([][]int, cfg.Trees)
	srcs := make([]*rng.Source, cfg.Trees)
	for k := 0; k < cfg.Trees; k++ {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = src.Intn(n)
		}
		boots[k] = rows
		srcs[k] = src.Split()
	}

	trees := make([]*tree.Tree, cfg.Trees)
	errs := make([]error, cfg.Trees)
	par.Do(par.Workers(cfg.Workers), cfg.Trees, func(k int) {
		trees[k], errs[k] = tree.Grow(binned, binner, y, boots[k], tree.Options{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			FeatureFrac: cfg.FeatureFrac,
			Rng:         srcs[k],
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	comp, err := compiled.Compile(trees, compiled.Config{
		NumFeatures: len(binned),
		Scale:       1,
		Div:         float64(len(trees)),
	})
	if err != nil {
		return err
	}
	m.trees = trees
	m.comp = comp
	return nil
}

// Compiled returns the forest's flattened inference kernel (nil before a
// successful Fit).
func (m *Model) Compiled() *compiled.Ensemble { return m.comp }

// Predict averages the trees' estimates.
func (m *Model) Predict(x []float64) float64 {
	if len(m.trees) == 0 {
		return 0
	}
	var sum float64
	for _, t := range m.trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(m.trees))
}

// PredictBatch predicts every row of a fitted forest through the
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
