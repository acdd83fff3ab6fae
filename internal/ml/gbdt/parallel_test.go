package gbdt

import (
	"math"
	"testing"
)

// TestGBDTWorkerCountParity: a fit runs on its caller's goroutine at
// every worker count, so on 2,500 rows (nodes large enough that any
// fan-out inside growth would engage) the fitted model must be
// bit-identical to one worker's.
func TestGBDTWorkerCountParity(t *testing.T) {
	X, y := synthData(41, 2500)
	Xt, _ := synthData(42, 300)

	serial := New(Config{Estimators: 40, MaxDepth: 5, Seed: 7, Workers: 1})
	if err := serial.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		m := New(Config{Estimators: 40, MaxDepth: 5, Seed: 7, Workers: w})
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for i, x := range Xt {
			if g, want := m.Predict(x), serial.Predict(x); g != want {
				t.Fatalf("workers=%d row %d: %v != serial %v", w, i, g, want)
			}
		}
		gotImp, err := m.FeatureImportance()
		if err != nil {
			t.Fatal(err)
		}
		wantImp, err := serial.FeatureImportance()
		if err != nil {
			t.Fatal(err)
		}
		for f := range wantImp {
			if gotImp[f] != wantImp[f] {
				t.Fatalf("workers=%d: feature %d importance %v != %v", w, f, gotImp[f], wantImp[f])
			}
		}
	}
}

// TestFitWorkerAllocParity pins that nothing fans out inside a fit: a
// Fit at Workers 4 allocates what the same Fit at Workers 1 does, so it
// starts no goroutine and builds no per-round closure. The slack absorbs
// the race detector's wobble of an allocation or two.
func TestFitWorkerAllocParity(t *testing.T) {
	X, y := synthData(44, 3000)
	allocs := func(workers int) float64 {
		m := New(Config{Estimators: 10, MaxDepth: 5, Seed: 6, Workers: workers})
		return testing.AllocsPerRun(5, func() {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial, par := allocs(1), allocs(4)
	if math.Abs(par-serial) > 4 {
		t.Fatalf("Fit allocates %v at Workers 4, %v at Workers 1", par, serial)
	}
}

// TestGBDTPredictBatchMatchesPredict pins the batch fast path.
func TestGBDTPredictBatchMatchesPredict(t *testing.T) {
	X, y := synthData(43, 1200)
	m := New(Config{Estimators: 30, MaxDepth: 4, Seed: 2, Workers: 4})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	got := m.PredictBatch(X)
	for i, x := range X {
		if want := m.Predict(x); got[i] != want {
			t.Fatalf("row %d: batch %v != serial %v", i, got[i], want)
		}
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

// TestClassifierWorkerCountParityAndRefit covers the native classifier:
// worker-count invariance and clean refit semantics in one pass.
func TestClassifierWorkerCountParityAndRefit(t *testing.T) {
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

	serial := NewClassifier(Config{Estimators: 12, MaxDepth: 4, Seed: 5, Workers: 1}, 3)
	if err := serial.FitLabels(X, labels); err != nil {
		t.Fatal(err)
	}
	par := NewClassifier(Config{Estimators: 12, MaxDepth: 4, Seed: 5, Workers: 4}, 3)
	if err := par.FitLabels(X, labels); err != nil {
		t.Fatal(err)
	}
	for i, x := range X[:200] {
		ss, ps := serial.Scores(x), par.Scores(x)
		for k := range ss {
			if ss[k] != ps[k] {
				t.Fatalf("row %d class %d: parallel score %v != serial %v", i, k, ps[k], ss[k])
			}
		}
	}

	// Refit the parallel classifier on a shifted dataset; it must equal a
	// fresh classifier.
	X2, y2 := synthData(72, 1000)
	labels2 := make([]int, len(y2))
	for i, v := range y2 {
		if v > 100 {
			labels2[i] = 1
		}
	}
	if err := par.FitLabels(X2, labels2); err != nil {
		t.Fatal(err)
	}
	fresh := NewClassifier(Config{Estimators: 12, MaxDepth: 4, Seed: 5, Workers: 4}, 3)
	if err := fresh.FitLabels(X2, labels2); err != nil {
		t.Fatal(err)
	}
	if par.NumRounds() != fresh.NumRounds() {
		t.Fatalf("refit kept stale rounds: %d vs %d", par.NumRounds(), fresh.NumRounds())
	}
	for i, x := range X2[:200] {
		rs, fs := par.Scores(x), fresh.Scores(x)
		for k := range rs {
			if rs[k] != fs[k] {
				t.Fatalf("row %d class %d: refit score %v != fresh %v", i, k, rs[k], fs[k])
			}
		}
	}
}
