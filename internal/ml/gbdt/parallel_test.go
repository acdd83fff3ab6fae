package gbdt

import (
	"math"
	"runtime"
	"testing"
)

// TestGBDTPredictBatchMatchesPredict pins the batch fast path: every
// row equals Predict, and a 1,024-row batch on two CPUs allocates only
// its output slice, so it starts no goroutine.
func TestGBDTPredictBatchMatchesPredict(t *testing.T) {
	X, y := synthData(43, 1200)
	m := New(Config{Estimators: 30, MaxDepth: 4, Seed: 2})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	got := m.PredictBatch(X)
	for i, x := range X {
		if want := m.Predict(x); got[i] != want {
			t.Fatalf("row %d: batch %v != serial %v", i, got[i], want)
		}
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops Puts
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if a := testing.AllocsPerRun(20, func() { m.PredictBatch(X[:1024]) }); a != 1 {
		t.Fatalf("1,024-row PredictBatch allocates %v times, want 1 (its output)", a)
	}
}

// TestGBDTRefitMatchesFresh: refitting a used model value must equal
// fitting a fresh one — stale trees, feature gains and base from the
// first fit may not leak into the second.
func TestGBDTRefitMatchesFresh(t *testing.T) {
	X1, y1 := synthData(51, 800)
	X2, y2 := synthData(52, 900)
	Xt, _ := synthData(53, 200)

	reused := New(Config{Estimators: 25, MaxDepth: 4, Seed: 9})
	if err := reused.Fit(X1, y1); err != nil {
		t.Fatal(err)
	}
	if err := reused.Fit(X2, y2); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Estimators: 25, MaxDepth: 4, Seed: 9})
	if err := fresh.Fit(X2, y2); err != nil {
		t.Fatal(err)
	}
	if reused.NumTrees() != fresh.NumTrees() {
		t.Fatalf("refit kept stale trees: %d vs %d", reused.NumTrees(), fresh.NumTrees())
	}
	for i, x := range Xt {
		if g, want := reused.Predict(x), fresh.Predict(x); g != want {
			t.Fatalf("row %d: refit %v != fresh %v", i, g, want)
		}
	}
	ri, err := reused.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	fi, err := fresh.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	for f := range fi {
		if ri[f] != fi[f] {
			t.Fatalf("feature %d: refit importance %v != fresh %v (stale featGain)", f, ri[f], fi[f])
		}
	}
}

// TestGBDTFailedRefitKeepsOldModel: a rejected Fit must leave the
// previous model serving untouched.
func TestGBDTFailedRefitKeepsOldModel(t *testing.T) {
	X, y := synthData(61, 600)
	m := New(Config{Estimators: 15, MaxDepth: 4, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := m.Predict(X[0])
	wantTrees := m.NumTrees()
	if err := m.Fit([][]float64{{1, math.NaN(), 0}}, []float64{1}); err == nil {
		t.Fatal("Fit accepted NaN input")
	}
	if got := m.Predict(X[0]); got != want {
		t.Fatalf("failed refit changed the model: %v != %v", got, want)
	}
	if m.NumTrees() != wantTrees {
		t.Fatalf("failed refit changed tree count: %d", m.NumTrees())
	}
}

// TestClassifierRefitMatchesFresh: refitting a fitted classifier on a
// shifted dataset must equal fitting a fresh one — no stale rounds or
// scores from the first fit.
func TestClassifierRefitMatchesFresh(t *testing.T) {
	X, y := synthData(71, 1200)
	labels := make([]int, len(y))
	for i, v := range y {
		switch {
		case v < 60:
			labels[i] = 0
		case v < 140:
			labels[i] = 1
		default:
			labels[i] = 2
		}
	}
	reused := NewClassifier(Config{Estimators: 12, MaxDepth: 4, Seed: 5}, 3)
	if err := reused.FitLabels(X, labels); err != nil {
		t.Fatal(err)
	}

	X2, y2 := synthData(72, 1000)
	labels2 := make([]int, len(y2))
	for i, v := range y2 {
		if v > 100 {
			labels2[i] = 1
		}
	}
	if err := reused.FitLabels(X2, labels2); err != nil {
		t.Fatal(err)
	}
	fresh := NewClassifier(Config{Estimators: 12, MaxDepth: 4, Seed: 5}, 3)
	if err := fresh.FitLabels(X2, labels2); err != nil {
		t.Fatal(err)
	}
	if reused.NumRounds() != fresh.NumRounds() {
		t.Fatalf("refit kept stale rounds: %d vs %d", reused.NumRounds(), fresh.NumRounds())
	}
	for i, x := range X2[:200] {
		rs, fs := reused.Scores(x), fresh.Scores(x)
		for k := range rs {
			if rs[k] != fs[k] {
				t.Fatalf("row %d class %d: refit score %v != fresh %v", i, k, rs[k], fs[k])
			}
		}
	}
}
