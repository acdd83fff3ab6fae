package gbdt

import (
	"math"
	"slices"
	"testing"

	"lumos5g/internal/ml"
	"lumos5g/internal/rng"
	"lumos5g/internal/stats"
)

// synthData generates y = 2*x0 + 10*sin(x1) + noise.
func synthData(seed uint64, n int) ([][]float64, []float64) {
	src := rng.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0 := src.Range(0, 100)
		x1 := src.Range(0, 6)
		X[i] = []float64{x0, x1, src.Norm()} // third feature is noise
		y[i] = 2*x0 + 50*math.Sin(x1) + src.NormMeanStd(0, 3)
	}
	return X, y
}

func TestGBDTFitsNonlinear(t *testing.T) {
	X, y := synthData(1, 3000)
	Xtest, ytest := synthData(2, 800)
	m := New(Config{Estimators: 120, MaxDepth: 4, LearningRate: 0.1, Seed: 3})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := ml.PredictAll(m, Xtest)
	mae := stats.MAE(pred, ytest)
	// Target std is ~70; a fitted model should be far below that.
	if mae > 12 {
		t.Fatalf("GBDT test MAE = %v, too high", mae)
	}
}

func TestGBDTBeatsMeanBaseline(t *testing.T) {
	X, y := synthData(4, 1500)
	m := New(Config{Estimators: 60, Seed: 5})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := ml.PredictAll(m, X)
	meanPred := make([]float64, len(y))
	mu := stats.Mean(y)
	for i := range meanPred {
		meanPred[i] = mu
	}
	if stats.RMSE(pred, y) > 0.3*stats.RMSE(meanPred, y) {
		t.Fatal("GBDT should explain most variance vs mean baseline")
	}
}

func TestGBDTMoreTreesHelp(t *testing.T) {
	X, y := synthData(6, 2000)
	Xt, yt := synthData(7, 500)
	small := New(Config{Estimators: 10, Seed: 8})
	big := New(Config{Estimators: 150, Seed: 8})
	if err := small.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	maeSmall := stats.MAE(ml.PredictAll(small, Xt), yt)
	maeBig := stats.MAE(ml.PredictAll(big, Xt), yt)
	if maeBig >= maeSmall {
		t.Fatalf("more estimators should help: 10 trees %v vs 150 trees %v", maeSmall, maeBig)
	}
}

func TestGBDTFeatureImportance(t *testing.T) {
	X, y := synthData(9, 2000)
	m := New(Config{Estimators: 50, Seed: 10})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp, err := m.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatal("importance cannot be negative")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
	// x0 dominates; the pure-noise feature must be negligible.
	if imp[0] < imp[2]*5 {
		t.Fatalf("x0 importance %v should dwarf noise %v", imp[0], imp[2])
	}
}

func TestGBDTUnfittedImportance(t *testing.T) {
	if _, err := New(Config{}).FeatureImportance(); err == nil {
		t.Fatal("unfitted importance should error")
	}
}

func TestGBDTRejectsBadInput(t *testing.T) {
	m := New(Config{Estimators: 5})
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty input should error")
	}
	if err := m.Fit([][]float64{{math.NaN()}}, []float64{1}); err == nil {
		t.Fatal("NaN should error")
	}
}

func TestGBDTDeterministic(t *testing.T) {
	X, y := synthData(11, 800)
	m1 := New(Config{Estimators: 30, Seed: 12})
	m2 := New(Config{Estimators: 30, Seed: 12})
	if err := m1.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{42, 3, 0}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Fatal("same seed must give identical models")
	}
}

func TestGBDTPredictClass(t *testing.T) {
	// Train on a separable classification-ish problem.
	src := rng.New(13)
	var X [][]float64
	var y []float64
	for i := 0; i < 1500; i++ {
		x := src.Range(0, 10)
		X = append(X, []float64{x})
		switch {
		case x < 3:
			y = append(y, 100) // low
		case x < 7:
			y = append(y, 500) // medium
		default:
			y = append(y, 1200) // high
		}
	}
	m := New(Config{Estimators: 60, Seed: 14})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if c := m.PredictClass([]float64{1}); c != ml.ClassLow {
		t.Fatalf("class(1) = %v", c)
	}
	if c := m.PredictClass([]float64{5}); c != ml.ClassMedium {
		t.Fatalf("class(5) = %v", c)
	}
	if c := m.PredictClass([]float64{9}); c != ml.ClassHigh {
		t.Fatalf("class(9) = %v", c)
	}
}

func TestGBDTNumTrees(t *testing.T) {
	X, y := synthData(15, 300)
	m := New(Config{Estimators: 17, Seed: 16})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != 17 {
		t.Fatalf("NumTrees = %d", m.NumTrees())
	}
}

// NumTrees returns the number of fitted boosting rounds.
func (m *Model) NumTrees() int { return len(m.trees) }

// TestDrawRowsPinned pins the rows GBDT bags in its first two rounds at
// seed 3 (its "gbdt" child stream) and a draw at seed 7 that equals
// SequenceSet.Subsample's: a change to rng's stream that moves them
// moves every fitted GBDT.
func TestDrawRowsPinned(t *testing.T) {
	idx := make([]int, 20)
	src := rng.New(3).SplitLabeled("gbdt")
	for round, want := range [][]int{
		{4, 2, 10, 19, 16, 3, 9, 13, 1, 11, 12, 5, 0, 8, 17, 14},
		{0, 11, 10, 4, 7, 13, 3, 19, 14, 2, 5, 1, 8, 9, 15, 16},
	} {
		if got := drawRows(idx, 16, src); !slices.Equal(got, want) {
			t.Fatalf("round %d drew %v, want %v", round, got, want)
		}
	}
	if got, want := drawRows(idx, 8, rng.New(7)), []int{7, 15, 2, 14, 3, 5, 18, 4}; !slices.Equal(got, want) {
		t.Fatalf("seed 7 drew %v, want %v", got, want)
	}
	// Asking for every row takes them in order and draws nothing.
	a, b := rng.New(9), rng.New(9)
	if got := drawRows(idx, len(idx), a); got[0] != 0 || got[19] != 19 || a.Uint64() != b.Uint64() {
		t.Fatalf("full draw %v advanced the source or reordered rows", got)
	}
}
