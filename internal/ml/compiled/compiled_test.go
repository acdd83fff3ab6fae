package compiled_test

import (
	"bytes"
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
	if e == nil || !e.Quantized() {
		t.Fatal("fit must compile a quantized kernel")
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

func TestCompiledRawVsQuantizedParity(t *testing.T) {
	// The same ensemble compiled without edges (raw float compares) must
	// agree bit-for-bit with the quantized kernel and the interpreter.
	const nf = 5
	X, y := synthData(700, nf, 3)
	m := gbdt.New(gbdt.Config{Estimators: 30, MaxDepth: 6, Seed: 11})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the serialised form drops nothing: Save keeps
	// edges, so the loaded model still compiles quantized.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := gbdt.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Compiled() == nil || !loaded.Compiled().Quantized() {
		t.Fatal("loaded model must compile quantized from stored edges")
	}
	probes := probeRows(X, nf, 4)
	want := make([]float64, len(probes))
	for i, x := range probes {
		want[i] = m.Predict(x)
	}
	quant := m.Compiled().PredictBatch(probes)
	fromLoad := loaded.Compiled().PredictBatch(probes)
	for i := range probes {
		if quant[i] != want[i] {
			t.Fatalf("quantized row %d: %v != %v", i, quant[i], want[i])
		}
		if fromLoad[i] != want[i] {
			t.Fatalf("loaded row %d: %v != %v", i, fromLoad[i], want[i])
		}
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
	if e == nil || !e.Quantized() {
		t.Fatal("fit must compile a quantized kernel")
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
	// Edges that do not contain the tree's threshold must be refused
	// rather than silently mis-quantizing.
	if _, err := compiled.Compile(trees, compiled.Config{NumFeatures: 1, Scale: 1, Edges: [][]float64{{0.5}}}); err == nil {
		t.Fatal("mismatched edges must not compile")
	}
	e, err := compiled.Compile(trees, compiled.Config{NumFeatures: 1, Scale: 1, Edges: [][]float64{{0.25}}})
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
