package compiled_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"lumos5g/internal/ml/compiled"
	"lumos5g/internal/ml/forest"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/ml/tree"
	"lumos5g/internal/rng"
)

// synthData builds a deterministic training set with mixed smooth /
// stepped structure so trees grow non-trivial shapes.
func synthData(n, nf int, seed uint64) ([][]float64, []float64) {
	src := rng.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, nf)
		for f := range row {
			row[f] = src.Float64()*200 - 100
		}
		X[i] = row
		y[i] = 3*row[0] - 2*row[1%nf] + 50*math.Sin(row[2%nf]/17) + src.Norm()*5
		if row[0] > 25 {
			y[i] += 400
		}
	}
	return X, y
}

// probeRows mixes training rows with fresh random rows (including values
// outside the training range, which stress the top/bottom quantile bins).
func probeRows(X [][]float64, nf int, seed uint64) [][]float64 {
	src := rng.New(seed)
	probes := make([][]float64, 0, len(X)+256)
	probes = append(probes, X...)
	for i := 0; i < 256; i++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = src.Float64()*400 - 200 // wider than training
		}
		probes = append(probes, row)
	}
	return probes
}

func TestCompiledGBDTParity(t *testing.T) {
	const nf = 6
	X, y := synthData(900, nf, 1)
	m := gbdt.New(gbdt.Config{Estimators: 40, MaxDepth: 5, Seed: 7})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	e := m.Compiled()
	if e == nil || e.Kernel() != "bitmask" {
		t.Fatal("a depth-5 fit must compile the bitmask kernel")
	}
	probes := probeRows(X, nf, 2)

	// Single-row compiled traversal.
	for i, x := range probes {
		if got, want := e.Predict(x), m.Predict(x); got != want {
			t.Fatalf("row %d: compiled %v != interpreted %v", i, got, want)
		}
	}
	// Batch (quantized path) through the model's serving entry point.
	batch := m.PredictBatch(probes)
	for i, x := range probes {
		if batch[i] != m.Predict(x) {
			t.Fatalf("batch row %d: %v != %v", i, batch[i], m.Predict(x))
		}
	}
}

func TestCompiledSaveLoadParity(t *testing.T) {
	// Load rebuilds the kernel from the trees alone, so an artifact as
	// Save writes it, one that also carries the training Binner's edges
	// (the format saved before edges were taken from the splits) and one
	// with an empty edge list all select the fitted model's kernel and
	// agree bit for bit with the interpreter.
	const nf = 5
	X, y := synthData(700, nf, 3)
	m := gbdt.New(gbdt.Config{Estimators: 30, MaxDepth: 6, Seed: 11})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	probes := probeRows(X, nf, 4)
	fitted := m.Compiled().PredictBatch(probes)
	for i, x := range probes {
		if want := m.Predict(x); fitted[i] != want {
			t.Fatalf("fitted row %d: %v != %v", i, fitted[i], want)
		}
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"saved", saved.Bytes()},
		{"with edges", edgePayload(t, m, tree.NewBinner(X, tree.MaxBins).Edges, nil)},
		{"without edges", edgePayload(t, m, nil, nil)},
	} {
		loaded, err := gbdt.Load(bytes.NewReader(c.payload))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e := loaded.Compiled()
		if k := e.Kernel(); k != "bitmask" || k != m.Compiled().Kernel() {
			t.Fatalf("%s: loaded model selects the %s kernel, fitted one the %s", c.name, k, m.Compiled().Kernel())
		}
		batch := loaded.PredictBatch(probes)
		for i, x := range probes {
			want := m.Predict(x)
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("%s: batch row %d: %v != interpreted %v", c.name, i, batch[i], want)
			}
			if got := e.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: single row %d: %v != interpreted %v", c.name, i, got, want)
			}
		}
	}
}

// edgeModelDTO copies gbdt's artifact payload as saved when artifacts
// still carried the training Binner's bin edges.
type edgeModelDTO struct {
	Version      int
	Base         float64
	LearningRate float64
	NFeat        int
	FeatGain     []float64
	Trees        []tree.TreeDTO
	Edges        [][]float64
}

// edgePayload re-encodes m's saved payload in that form, with the given
// edges and, when edit is set, edited.
func edgePayload(t *testing.T, m *gbdt.Model, edges [][]float64, edit func(*edgeModelDTO)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dto edgeModelDTO
	if err := gob.NewDecoder(&buf).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	dto.Edges = edges
	if edit != nil {
		edit(&dto)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsNaNThreshold(t *testing.T) {
	X, y := synthData(300, 3, 5)
	m := gbdt.New(gbdt.Config{Estimators: 3, MaxDepth: 3, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	payload := edgePayload(t, m, nil, func(dto *edgeModelDTO) {
		dto.Trees[1].Nodes[0].Threshold = math.NaN()
	})
	if _, err := gbdt.Load(bytes.NewReader(payload)); err == nil {
		t.Fatal("a NaN threshold must fail the load")
	}
}

func TestCompiledForestParity(t *testing.T) {
	const nf = 7
	X, y := synthData(800, nf, 5)
	m := forest.New(forest.Config{Trees: 25, MaxDepth: 9, Seed: 13})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	e := m.Compiled()
	if e == nil || e.Kernel() != "banked" {
		t.Fatal("a depth-9 forest must compile the banked kernel")
	}
	probes := probeRows(X, nf, 6)
	batch := m.PredictBatch(probes)
	for i, x := range probes {
		want := m.Predict(x)
		if batch[i] != want {
			t.Fatalf("batch row %d: %v != %v", i, batch[i], want)
		}
		if got := e.Predict(x); got != want {
			t.Fatalf("single row %d: %v != %v", i, got, want)
		}
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	if _, err := compiled.Compile(nil, compiled.Config{NumFeatures: 3}); err == nil {
		t.Fatal("empty ensemble must not compile")
	}
	// Hand-built stump splitting feature 0 at 0.25.
	stump, err := tree.Import(tree.TreeDTO{Nodes: []tree.NodeDTO{
		{Feature: 0, Threshold: 0.25, Left: 1, Right: 2},
		{Feature: -1, Value: 10},
		{Feature: -1, Value: 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	trees := []*tree.Tree{stump}
	if _, err := compiled.Compile(trees, compiled.Config{NumFeatures: 0, Scale: 1}); err == nil {
		t.Fatal("zero feature count must not compile")
	}
	nan, err := tree.Import(tree.TreeDTO{Nodes: []tree.NodeDTO{
		{Feature: 0, Threshold: math.NaN(), Left: 1, Right: 2},
		{Feature: -1, Value: 10},
		{Feature: -1, Value: 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiled.Compile([]*tree.Tree{stump, nan}, compiled.Config{NumFeatures: 1, Scale: 1}); err == nil {
		t.Fatal("a NaN threshold must not compile")
	}
	// 255 distinct thresholds on feature 1 leave no room for the leaf
	// sentinel bin; 254 still compile.
	var many []*tree.Tree
	for i := 0; i < 255; i++ {
		tr, err := tree.Import(tree.TreeDTO{Nodes: []tree.NodeDTO{
			{Feature: 1, Threshold: float64(i), Left: 1, Right: 2},
			{Feature: -1, Value: 1},
			{Feature: -1, Value: 2},
		}})
		if err != nil {
			t.Fatal(err)
		}
		many = append(many, tr)
	}
	if _, err := compiled.Compile(many, compiled.Config{NumFeatures: 2, Scale: 1}); err == nil {
		t.Fatal("255 distinct thresholds on one feature must not compile")
	}
	if _, err := compiled.Compile(many[:254], compiled.Config{NumFeatures: 2, Scale: 1}); err != nil {
		t.Fatalf("254 distinct thresholds: %v", err)
	}
	e, err := compiled.Compile(trees, compiled.Config{NumFeatures: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Predict([]float64{0.2}); got != 10 {
		t.Fatalf("left leaf: %v", got)
	}
	if got := e.PredictBatch([][]float64{{0.2}, {0.3}}); got[0] != 10 || got[1] != 20 {
		t.Fatalf("batch: %v", got)
	}
}
