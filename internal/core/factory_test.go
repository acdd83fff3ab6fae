package core

import (
	"math"
	"reflect"
	"testing"

	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/forest"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/ml/knn"
	"lumos5g/internal/ml/kriging"
	"lumos5g/internal/ml/nn"
	"lumos5g/internal/rng"
)

// TestNewRegressorFamilies: each tabular kind builds its own family,
// configured from the Scale and seeded with Scale.Seed.
func TestNewRegressorFamilies(t *testing.T) {
	sc := Scale{
		GBDT:    gbdt.Config{Estimators: 7, MaxDepth: 3},
		RF:      forest.Config{Trees: 5},
		KNN:     knn.Config{K: 3},
		Kriging: kriging.Config{Neighbors: 9},
		Seq2Seq: nn.Seq2SeqConfig{Hidden: 4, Epochs: 2},
		Seed:    11,
	}
	seeded := func(cfg nn.Seq2SeqConfig) nn.Seq2SeqConfig { cfg.Seed = sc.Seed; return cfg }
	for kind, want := range map[ModelKind]ml.Regressor{
		ModelKNN:     knn.New(sc.KNN),
		ModelRF:      forest.New(forest.Config{Trees: 5, Seed: 11}),
		ModelOK:      kriging.New(sc.Kriging),
		ModelGDBT:    gbdt.New(gbdt.Config{Estimators: 7, MaxDepth: 3, Seed: 11}),
		ModelLSTM:    nn.NewTabularLSTM(seeded(sc.Seq2Seq)),
		ModelSeq2Seq: nn.NewTabularSeq2Seq(seeded(sc.Seq2Seq)),
	} {
		got, err := NewRegressor(kind, sc)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: built %#v, want %#v", kind, got, want)
		}
	}
	if _, err := NewRegressor(ModelHM, sc); err == nil {
		t.Error("HM has no tabular model, but NewRegressor built one")
	}
}

// TestNewRegressorSeedAsGiven: the factory applies no seed default, so
// a Scale{} model is the seed-0 model (what Train and the chain
// trainers fit), not Evaluate's seed 1.
func TestNewRegressorSeedAsGiven(t *testing.T) {
	src := rng.New(5)
	X := make([][]float64, 200)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{src.Range(0, 10), src.Range(0, 10)}
		y[i] = 3*X[i][0] - X[i][1] + src.Norm()
	}
	fit := func(m ml.Regressor) []float64 {
		t.Helper()
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return ml.PredictAll(m, X)
	}
	reg, err := NewRegressor(ModelGDBT, Scale{})
	if err != nil {
		t.Fatal(err)
	}
	got := fit(reg)
	seed0, seed1 := fit(gbdt.New(gbdt.Config{Seed: 0})), fit(gbdt.New(gbdt.Config{Seed: 1}))
	differs := false
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(seed0[i]) {
			t.Fatalf("row %d: Scale{} GBDT predicts %v, gbdt seed 0 %v", i, got[i], seed0[i])
		}
		differs = differs || got[i] != seed1[i]
	}
	if !differs {
		t.Fatal("seed 0 and seed 1 GBDTs predict alike: the check cannot see a seed default")
	}
}

// TestEvaluateMatrixRefusesSequenceModels: HM, Seq2Seq and LSTM are
// scored on sequences (Evaluate), never on a tabular split.
func TestEvaluateMatrixRefusesSequenceModels(t *testing.T) {
	m := &features.Matrix{X: [][]float64{{1}, {2}, {3}, {4}}, Y: []float64{1, 2, 3, 4}}
	for _, kind := range []ModelKind{ModelHM, ModelSeq2Seq, ModelLSTM} {
		if res := EvaluateMatrix(m, kind, Scale{}); res.Err == nil {
			t.Errorf("EvaluateMatrix scored %s on a tabular split: %+v", kind, res)
		}
	}
}
