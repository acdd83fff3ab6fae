package gbdt

import (
	"errors"
	"math"

	"lumos5g/internal/ml"
	"lumos5g/internal/ml/tree"
	"lumos5g/internal/par"
	"lumos5g/internal/rng"
)

// Classifier is a native multi-class gradient-boosted classifier using
// the standard one-tree-per-class softmax formulation (K-class LogitBoost
// / multinomial deviance). The paper uses "a gradient boosting regressor
// (and classifier)" (§6.1); the regressor + thresholding route is the
// framework default, and this native classifier backs the ablation that
// compares the two.
type Classifier struct {
	cfg     Config
	classes int
	trees   [][]*tree.Tree // [round][class]
	base    []float64      // per-class prior log-odds
}

// NewClassifier creates an unfitted classifier for the given class count.
func NewClassifier(cfg Config, classes int) *Classifier {
	return &Classifier{cfg: cfg.withDefaults(), classes: classes}
}

// FitLabels trains on integer class labels in [0, classes). Refitting an
// already fitted classifier behaves exactly like fitting a fresh one; on
// error the previous model is left untouched.
func (c *Classifier) FitLabels(X [][]float64, labels []int) error {
	if len(X) == 0 || len(X) != len(labels) {
		return errors.New("gbdt: bad classification input shape")
	}
	yf := make([]float64, len(labels))
	for i, l := range labels {
		if l < 0 || l >= c.classes {
			return errors.New("gbdt: label out of range")
		}
		yf[i] = float64(l)
	}
	if err := ml.ValidateXY(X, yf); err != nil {
		return err
	}
	cfg := c.cfg
	n := len(X)
	K := c.classes

	// Priors.
	counts := make([]float64, K)
	for _, l := range labels {
		counts[l]++
	}
	base := make([]float64, K)
	for k := 0; k < K; k++ {
		p := (counts[k] + 1) / float64(n+K)
		base[k] = math.Log(p)
	}

	binner := tree.NewBinner(X, tree.MaxBins)
	binned := binner.BinMatrix(X)

	// Raw scores per sample per class.
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = append([]float64(nil), base...)
	}
	grad := make([]float64, n)
	src := rng.New(cfg.Seed).SplitLabeled("gbdt-classifier")
	nSub := int(cfg.Subsample * float64(n))
	if nSub < 2 {
		nSub = n
	}

	workers := par.Bound(par.Workers(cfg.Workers), n, batchMinRows)
	idx := make([]int, n)
	var trees [][]*tree.Tree
	for round := 0; round < cfg.Estimators; round++ {
		roundTrees := make([]*tree.Tree, K)
		// Every class's tree grows on this round's rows; tree.Grow
		// partitions a copy, so each sees them in draw order.
		rows := drawRows(idx, nSub, src)
		for k := 0; k < K; k++ {
			// Negative gradient of multinomial deviance: y_k - p_k.
			par.Chunks(workers, n, func(lo, hi int) {
				probs := make([]float64, K)
				for i := lo; i < hi; i++ {
					softmaxInto(scores[i], probs)
					indicator := 0.0
					if labels[i] == k {
						indicator = 1
					}
					grad[i] = indicator - probs[k]
				}
			})
			t, err := tree.Grow(binned, binner, grad, rows, tree.Options{
				MaxDepth: cfg.MaxDepth,
				MinLeaf:  cfg.MinLeaf,
				Workers:  par.Workers(cfg.Workers),
			})
			if err != nil {
				return err
			}
			roundTrees[k] = t
		}
		// Update all class scores after the round so classes within a
		// round see consistent probabilities.
		for k := 0; k < K; k++ {
			tk := roundTrees[k]
			par.Chunks(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					scores[i][k] += cfg.LearningRate * tk.PredictBinned(binned, i)
				}
			})
		}
		trees = append(trees, roundTrees)
	}
	c.base = base
	c.trees = trees
	return nil
}

// softmaxInto writes softmax(scores) into out (len K), numerically stable.
func softmaxInto(scores, out []float64) {
	mx := scores[0]
	for _, s := range scores[1:] {
		if s > mx {
			mx = s
		}
	}
	var sum float64
	for k, s := range scores {
		out[k] = math.Exp(s - mx)
		sum += out[k]
	}
	for k := range out {
		out[k] /= sum
	}
}

// Scores returns the raw per-class additive scores for one sample.
func (c *Classifier) Scores(x []float64) []float64 {
	scores := append([]float64(nil), c.base...)
	for _, round := range c.trees {
		for k, t := range round {
			scores[k] += c.cfg.LearningRate * t.Predict(x)
		}
	}
	return scores
}

// Proba returns the class probability vector for one sample.
func (c *Classifier) Proba(x []float64) []float64 {
	scores := c.Scores(x)
	out := make([]float64, len(scores))
	softmaxInto(scores, out)
	return out
}

// Predict returns the most probable class label.
func (c *Classifier) Predict(x []float64) int {
	scores := c.Scores(x)
	best := 0
	for k := 1; k < len(scores); k++ {
		if scores[k] > scores[best] {
			best = k
		}
	}
	return best
}

// NumRounds returns the number of fitted boosting rounds.
func (c *Classifier) NumRounds() int { return len(c.trees) }
