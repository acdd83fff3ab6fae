package forest

import (
	"math"
	"testing"

	"lumos5g/internal/ml"
	"lumos5g/internal/rng"
	"lumos5g/internal/stats"
)

func synthData(seed uint64, n int) ([][]float64, []float64) {
	src := rng.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := src.Range(0, 50)
		b := src.Range(0, 50)
		X[i] = []float64{a, b}
		y[i] = a*b/10 + src.NormMeanStd(0, 2)
	}
	return X, y
}

func TestForestFits(t *testing.T) {
	X, y := synthData(1, 2000)
	Xt, yt := synthData(2, 500)
	m := New(Config{Trees: 30, Seed: 3})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mae := stats.MAE(ml.PredictAll(m, Xt), yt)
	// Interaction term a*b/10 spans 0..250 with std ~55; RF should do
	// far better than that.
	if mae > 15 {
		t.Fatalf("forest MAE = %v", mae)
	}
	if m.NumTrees() != 30 {
		t.Fatalf("NumTrees = %d", m.NumTrees())
	}
}

func TestForestAveragingSmoothsSingleTree(t *testing.T) {
	X, y := synthData(4, 1200)
	Xt, yt := synthData(5, 400)
	single := New(Config{Trees: 1, Seed: 6})
	many := New(Config{Trees: 40, Seed: 6})
	if err := single.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	maeSingle := stats.MAE(ml.PredictAll(single, Xt), yt)
	maeMany := stats.MAE(ml.PredictAll(many, Xt), yt)
	if maeMany >= maeSingle {
		t.Fatalf("ensemble (%v) should beat one bootstrap tree (%v)", maeMany, maeSingle)
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := synthData(7, 500)
	m1 := New(Config{Trees: 10, Seed: 8})
	m2 := New(Config{Trees: 10, Seed: 8})
	if err := m1.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := []float64{25, 25}
	if m1.Predict(p) != m2.Predict(p) {
		t.Fatal("same seed must give identical forests")
	}
}

func TestForestRejectsBadInput(t *testing.T) {
	m := New(Config{Trees: 2})
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty input should error")
	}
	if err := m.Fit([][]float64{{math.Inf(1)}}, []float64{1}); err == nil {
		t.Fatal("Inf should error")
	}
}

func TestForestUnfittedPredict(t *testing.T) {
	if v := New(Config{}).Predict([]float64{1}); v != 0 {
		t.Fatalf("unfitted forest should predict 0, got %v", v)
	}
}

func TestForestPredictClass(t *testing.T) {
	src := rng.New(9)
	var X [][]float64
	var y []float64
	for i := 0; i < 1000; i++ {
		x := src.Range(0, 1)
		X = append(X, []float64{x})
		if x < 0.5 {
			y = append(y, 100)
		} else {
			y = append(y, 1000)
		}
	}
	m := New(Config{Trees: 20, Seed: 10})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if c := m.PredictClass([]float64{0.1}); c != ml.ClassLow {
		t.Fatalf("class(0.1) = %v", c)
	}
	if c := m.PredictClass([]float64{0.9}); c != ml.ClassHigh {
		t.Fatalf("class(0.9) = %v", c)
	}
}

// NumTrees returns the fitted ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }
