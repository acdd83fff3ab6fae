package forest

import (
	"math"
	"runtime"
	"testing"
)

// TestForestWorkerCountParity: the fitted model and its predictions must
// be bit-identical for every Workers setting.
func TestForestWorkerCountParity(t *testing.T) {
	X, y := synthData(11, 1500)
	Xt, _ := synthData(12, 300)

	serial := New(Config{Trees: 20, Seed: 5, Workers: 1})
	if err := serial.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		m := New(Config{Trees: 20, Seed: 5, Workers: w})
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for i, x := range Xt {
			if g, want := m.Predict(x), serial.Predict(x); g != want {
				t.Fatalf("workers=%d row %d: %v != serial %v", w, i, g, want)
			}
		}
	}
}

// TestForestPredictBatchMatchesPredict: the batch fast path must return
// exactly the per-row Predict values, and a 1,024-row batch on two CPUs
// allocates only its output slice, so it starts no goroutine.
func TestForestPredictBatchMatchesPredict(t *testing.T) {
	X, y := synthData(13, 1024)
	m := New(Config{Trees: 15, Seed: 2, Workers: 4})
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
	if a := testing.AllocsPerRun(20, func() { m.PredictBatch(X) }); a != 1 {
		t.Fatalf("1,024-row PredictBatch allocates %v times, want 1 (its output)", a)
	}
}

// TestForestRefitMatchesFresh: a second Fit on the same model value must
// produce exactly the model a fresh value would (no stale trees, no
// leftover rng position).
func TestForestRefitMatchesFresh(t *testing.T) {
	X1, y1 := synthData(21, 800)
	X2, y2 := synthData(22, 900)
	Xt, _ := synthData(23, 200)

	reused := New(Config{Trees: 12, Seed: 9})
	if err := reused.Fit(X1, y1); err != nil {
		t.Fatal(err)
	}
	if err := reused.Fit(X2, y2); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Trees: 12, Seed: 9})
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
}

// TestForestFailedRefitKeepsOldModel: a rejected Fit must leave the
// previously fitted ensemble serving untouched.
func TestForestFailedRefitKeepsOldModel(t *testing.T) {
	X, y := synthData(31, 600)
	m := New(Config{Trees: 10, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := m.Predict(X[0])
	bad := [][]float64{{1, math.NaN()}}
	if err := m.Fit(bad, []float64{1}); err == nil {
		t.Fatal("Fit accepted NaN input")
	}
	if got := m.Predict(X[0]); got != want {
		t.Fatalf("failed refit changed the model: %v != %v", got, want)
	}
	if m.NumTrees() != 10 {
		t.Fatalf("failed refit changed ensemble size: %d", m.NumTrees())
	}
}
