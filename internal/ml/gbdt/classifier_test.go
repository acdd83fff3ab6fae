package gbdt

import (
	"math"
	"testing"

	"lumos5g/internal/rng"
)

// threeBlobs generates three separable 2-D clusters.
func threeBlobs(seed uint64, n int) ([][]float64, []int) {
	src := rng.New(seed)
	centers := [][2]float64{{0, 0}, {8, 0}, {4, 7}}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		k := i % 3
		X[i] = []float64{
			centers[k][0] + src.Norm(),
			centers[k][1] + src.Norm(),
		}
		y[i] = k
	}
	return X, y
}

func TestClassifierSeparableBlobs(t *testing.T) {
	X, y := threeBlobs(1, 900)
	Xt, yt := threeBlobs(2, 300)
	c := NewClassifier(Config{Estimators: 40, MaxDepth: 3, LearningRate: 0.2, Seed: 3}, 3)
	if err := c.FitLabels(X, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range Xt {
		if c.Predict(Xt[i]) == yt[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(Xt))
	if acc < 0.95 {
		t.Fatalf("blob accuracy = %v", acc)
	}
}

func TestClassifierProbabilities(t *testing.T) {
	X, y := threeBlobs(4, 600)
	c := NewClassifier(Config{Estimators: 30, MaxDepth: 3, Seed: 5}, 3)
	if err := c.FitLabels(X, y); err != nil {
		t.Fatal(err)
	}
	p := c.Proba([]float64{0, 0})
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Cluster 0 lives at (0,0): its probability should dominate (30
	// small boosting steps do not fully saturate the softmax, so the
	// bound is modest).
	if p[0] < 0.6 {
		t.Fatalf("cluster-0 probability = %v at its center", p[0])
	}
}

func TestClassifierImbalancedPrior(t *testing.T) {
	// One feature with no signal: predictions should follow the prior.
	src := rng.New(6)
	var X [][]float64
	var y []int
	for i := 0; i < 600; i++ {
		X = append(X, []float64{src.Norm()})
		if i%10 == 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	c := NewClassifier(Config{Estimators: 10, MaxDepth: 2, Seed: 7}, 2)
	if err := c.FitLabels(X, y); err != nil {
		t.Fatal(err)
	}
	if c.Predict([]float64{0.1}) != 0 {
		t.Fatal("majority class should win without signal")
	}
	p := c.Proba([]float64{0.1})
	if p[1] > 0.35 {
		t.Fatalf("minority probability = %v, want near the 10%% prior", p[1])
	}
}

func TestClassifierValidation(t *testing.T) {
	c := NewClassifier(Config{Estimators: 2}, 3)
	if err := c.FitLabels(nil, nil); err == nil {
		t.Fatal("empty input should error")
	}
	if err := c.FitLabels([][]float64{{1}}, []int{5}); err == nil {
		t.Fatal("out-of-range label should error")
	}
	if err := c.FitLabels([][]float64{{math.NaN()}}, []int{0}); err == nil {
		t.Fatal("NaN feature should error")
	}
}

func TestClassifierDeterministic(t *testing.T) {
	X, y := threeBlobs(8, 300)
	mk := func() []float64 {
		c := NewClassifier(Config{Estimators: 10, Seed: 9}, 3)
		if err := c.FitLabels(X, y); err != nil {
			t.Fatal(err)
		}
		return c.Scores([]float64{4, 3})
	}
	a, b := mk(), mk()
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("same seed should give identical classifiers")
		}
	}
}

func TestClassifierNumRounds(t *testing.T) {
	X, y := threeBlobs(10, 150)
	c := NewClassifier(Config{Estimators: 7, Seed: 11}, 3)
	if err := c.FitLabels(X, y); err != nil {
		t.Fatal(err)
	}
	if c.NumRounds() != 7 {
		t.Fatalf("rounds = %d", c.NumRounds())
	}
}

func TestSoftmaxInto(t *testing.T) {
	out := make([]float64, 3)
	softmaxInto([]float64{1, 1, 1}, out)
	for _, v := range out {
		if math.Abs(v-1.0/3.0) > 1e-12 {
			t.Fatalf("uniform softmax = %v", out)
		}
	}
	// Large scores must not overflow.
	softmaxInto([]float64{1000, 999, 0}, out)
	if math.IsNaN(out[0]) || out[0] < out[1] {
		t.Fatalf("stable softmax = %v", out)
	}
}

// Proba returns the class probability vector for one sample.
func (c *Classifier) Proba(x []float64) []float64 {
	scores := c.Scores(x)
	out := make([]float64, len(scores))
	softmaxInto(scores, out)
	return out
}

// NumRounds returns the number of fitted boosting rounds.
func (c *Classifier) NumRounds() int { return len(c.trees) }
