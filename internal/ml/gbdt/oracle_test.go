package gbdt

import (
	"math"
	"testing"

	"lumos5g/internal/ml/tree"
	"lumos5g/internal/rng"
)

// oracleFit is the boosting round loop as it stood before Fit reused
// its buffers and credited grown rows by leaf: every round draws its
// subsample into a fresh index slice, grows through tree.Grow (which
// partitions a fresh copy with a fresh scratch buffer), and re-walks
// every row through the new tree with PredictBinned. It returns what
// Fit keeps, plus the in-training prediction of every row.
func oracleFit(cfg Config, X [][]float64, y []float64) (base float64, trees []*tree.Tree, featGain, pred []float64) {
	cfg = cfg.withDefaults()
	featGain = make([]float64, len(X[0]))
	var sum float64
	for _, v := range y {
		sum += v
	}
	base = sum / float64(len(y))
	binner := tree.NewBinner(X, tree.MaxBins)
	binned := binner.BinMatrix(X)
	pred = make([]float64, len(y))
	for i := range pred {
		pred[i] = base
	}
	resid := make([]float64, len(y))
	src := rng.New(cfg.Seed).SplitLabeled("gbdt")
	nSub := int(cfg.Subsample * float64(len(y)))
	if nSub < 2 {
		nSub = len(y)
	}
	for round := 0; round < cfg.Estimators; round++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		t, err := tree.Grow(binned, binner, resid, oracleSubsample(len(y), nSub, src), tree.Options{
			MaxDepth: cfg.MaxDepth,
			MinLeaf:  cfg.MinLeaf,
		})
		if err != nil {
			panic(err)
		}
		for i := range pred {
			pred[i] += cfg.LearningRate * t.PredictBinned(binned, i)
		}
		for f, g := range t.Gain {
			featGain[f] += g
		}
		trees = append(trees, t)
	}
	return base, trees, featGain, pred
}

// oracleSubsample draws n distinct rows without replacement by a
// partial Fisher–Yates on a fresh index slice.
func oracleSubsample(total, n int, src *rng.Source) []int {
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	if n >= total {
		return idx
	}
	for i := 0; i < n; i++ {
		j := i + src.Intn(total-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:n]
}

// sameBits reports whether two floats have identical bit patterns, so
// -0 differs from +0 and a NaN equals only itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkMatchesOracle fails unless m, fitted on X, y, holds exactly the
// oracle's base, trees and feature gains, and predicts every training
// row (Predict and PredictBatch) as the oracle's in-training prediction.
func checkMatchesOracle(t *testing.T, m *Model, X [][]float64, y []float64) {
	t.Helper()
	base, trees, gains, pred := oracleFit(m.cfg, X, y)
	if !sameBits(m.base, base) {
		t.Fatalf("base %v, oracle %v", m.base, base)
	}
	if len(m.trees) != len(trees) {
		t.Fatalf("%d trees, oracle %d", len(m.trees), len(trees))
	}
	for k := range trees {
		got, want := m.trees[k].Export(), trees[k].Export()
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("tree %d: %d nodes, oracle %d", k, len(got.Nodes), len(want.Nodes))
		}
		for i, g := range got.Nodes {
			w := want.Nodes[i]
			if g.Feature != w.Feature || g.Left != w.Left || g.Right != w.Right ||
				!sameBits(g.Threshold, w.Threshold) || !sameBits(g.Value, w.Value) {
				t.Fatalf("tree %d node %d: %+v, oracle %+v", k, i, g, w)
			}
		}
		for f := range want.Gain {
			if !sameBits(got.Gain[f], want.Gain[f]) {
				t.Fatalf("tree %d gain %d: %v, oracle %v", k, f, got.Gain[f], want.Gain[f])
			}
		}
	}
	for f := range gains {
		if !sameBits(m.featGain[f], gains[f]) {
			t.Fatalf("feature gain %d: %v, oracle %v", f, m.featGain[f], gains[f])
		}
	}
	batch := m.PredictBatch(X)
	for i, x := range X {
		if p := m.Predict(x); !sameBits(p, pred[i]) || !sameBits(batch[i], pred[i]) {
			t.Fatalf("row %d: Predict %v, PredictBatch %v, oracle %v", i, p, batch[i], pred[i])
		}
	}
}

// TestFitRoundLoopOracleParity pins Fit's reused buffers and by-leaf
// row credit to the fresh-buffer, walk-every-row round loop: the fitted
// model must be bit-identical with out-of-bag rows and without, when
// MinLeaf ends branches early, at the default subsample and leaf size
// (the "parallel scans" case, named for the per-feature fan-out Fit once
// had), and on a model value refitted on new data.
func TestFitRoundLoopOracleParity(t *testing.T) {
	X, y := synthData(61, 3000)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"subsample 0.8", Config{Estimators: 30, MaxDepth: 5, Subsample: 0.8, Seed: 3}},
		{"subsample 1.0", Config{Estimators: 30, MaxDepth: 5, Subsample: 1, Seed: 3}},
		{"large MinLeaf", Config{Estimators: 30, MaxDepth: 6, MinLeaf: 400, Seed: 4}},
		{"parallel scans", Config{Estimators: 20, MaxDepth: 5, Seed: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(c.cfg)
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			checkMatchesOracle(t, m, X, y)
		})
	}
	t.Run("refit one model value", func(t *testing.T) {
		X1, y1 := synthData(62, 900)
		X2, y2 := synthData(63, 1100)
		m := New(Config{Estimators: 25, MaxDepth: 4, Seed: 9})
		if err := m.Fit(X1, y1); err != nil {
			t.Fatal(err)
		}
		checkMatchesOracle(t, m, X1, y1)
		if err := m.Fit(X2, y2); err != nil {
			t.Fatal(err)
		}
		checkMatchesOracle(t, m, X2, y2)
	})
}
