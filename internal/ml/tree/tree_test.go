package tree

import (
	"errors"
	"math"
	"testing"

	"lumos5g/internal/rng"
)

func TestBinnerEdgesSorted(t *testing.T) {
	src := rng.New(1)
	X := make([][]float64, 500)
	for i := range X {
		X[i] = []float64{src.Range(0, 100), src.Norm()}
	}
	b := NewBinner(X, 32)
	for f, edges := range b.Edges {
		for i := 1; i < len(edges); i++ {
			if edges[i] <= edges[i-1] {
				t.Fatalf("feature %d edges not strictly increasing", f)
			}
		}
	}
}

func TestBinValueBoundaries(t *testing.T) {
	b := &Binner{Edges: [][]float64{{1, 2, 3}}}
	cases := []struct {
		v    float64
		want uint8
	}{
		{0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {2.5, 2}, {3, 2}, {99, 3},
	}
	for _, c := range cases {
		if got := b.BinValue(0, c.v); got != c.want {
			t.Errorf("BinValue(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBinnerConstantFeature(t *testing.T) {
	X := [][]float64{{5}, {5}, {5}, {5}}
	b := NewBinner(X, 16)
	if len(b.Edges[0]) > 1 {
		t.Fatalf("constant feature should collapse to <=1 edge, got %d", len(b.Edges[0]))
	}
}

func TestTreeFitsStepFunction(t *testing.T) {
	// y = 10 for x<50, 100 otherwise: one split suffices.
	var X [][]float64
	var y []float64
	src := rng.New(2)
	for i := 0; i < 400; i++ {
		x := src.Range(0, 100)
		X = append(X, []float64{x})
		if x < 50 {
			y = append(y, 10)
		} else {
			y = append(y, 100)
		}
	}
	tr, _, err := Fit(X, y, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := tr.Predict([]float64{10}); math.Abs(v-10) > 1 {
		t.Fatalf("predict(10) = %v", v)
	}
	if v := tr.Predict([]float64{90}); math.Abs(v-100) > 1 {
		t.Fatalf("predict(90) = %v", v)
	}
	if tr.Gain[0] <= 0 {
		t.Fatal("split feature must accumulate gain")
	}
}

func TestTreePicksInformativeFeature(t *testing.T) {
	// Feature 1 is pure noise; feature 0 determines y.
	src := rng.New(3)
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x0 := src.Range(0, 10)
		X = append(X, []float64{x0, src.Norm()})
		y = append(y, 5*x0)
	}
	tr, _, err := Fit(X, y, Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Gain[0] <= tr.Gain[1]*10 {
		t.Fatalf("informative feature gain %v should dwarf noise %v", tr.Gain[0], tr.Gain[1])
	}
}

func TestTreeDepthBound(t *testing.T) {
	src := rng.New(4)
	var X [][]float64
	var y []float64
	for i := 0; i < 1000; i++ {
		x := src.Range(0, 1)
		X = append(X, []float64{x})
		y = append(y, math.Sin(20*x))
	}
	tr, _, err := Fit(X, y, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 3 {
		t.Fatalf("depth %d exceeds bound 3", d)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	src := rng.New(5)
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := src.Range(0, 1)
		X = append(X, []float64{x})
		y = append(y, x)
	}
	tr, _, err := Fit(X, y, Options{MaxDepth: 20, MinLeaf: 40})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 40 on 100 samples, at most one split is possible.
	if tr.Depth() > 1 {
		t.Fatalf("MinLeaf violated: depth %d", tr.Depth())
	}
}

func TestTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tr, _, err := Fit(X, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("constant target should give a single leaf, got %d nodes", tr.NumNodes())
	}
	if v := tr.Predict([]float64{99}); v != 7 {
		t.Fatalf("predict = %v", v)
	}
}

func TestTreeEmptyInput(t *testing.T) {
	if _, _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := Grow(nil, &Binner{}, nil, nil, Options{}); err == nil {
		t.Fatal("Grow on empty input should error")
	}
}

func TestPredictBinnedMatchesPredict(t *testing.T) {
	src := rng.New(6)
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		X = append(X, []float64{src.Range(0, 10), src.Range(-5, 5)})
		y = append(y, X[i][0]*3-X[i][1])
	}
	binner := NewBinner(X, 64)
	binned := binner.BinMatrix(X)
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	tr, err := Grow(binned, binner, y, rows, Options{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		a := tr.Predict(X[i])
		b := tr.PredictBinned(binned, i)
		if a != b {
			t.Fatalf("row %d: Predict=%v PredictBinned=%v", i, a, b)
		}
	}
}

func TestFeatureSubsampling(t *testing.T) {
	src := rng.New(7)
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		row := []float64{src.Norm(), src.Norm(), src.Norm(), src.Norm()}
		X = append(X, row)
		y = append(y, row[0]+row[1]+row[2]+row[3])
	}
	tr, _, err := Fit(X, y, Options{MaxDepth: 4, FeatureFrac: 0.5, Rng: rng.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() < 3 {
		t.Fatal("subsampled tree should still split")
	}
}

func TestTreeReducesVariance(t *testing.T) {
	src := rng.New(9)
	var X [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		a := src.Range(0, 100)
		b := src.Range(0, 100)
		X = append(X, []float64{a, b})
		y = append(y, 2*a+0.5*b+src.NormMeanStd(0, 5))
	}
	tr, _, err := Fit(X, y, Options{MaxDepth: 8, MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sse, tss, mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i := range X {
		d := tr.Predict(X[i]) - y[i]
		sse += d * d
		dd := y[i] - mean
		tss += dd * dd
	}
	if sse > tss*0.1 {
		t.Fatalf("tree explains too little variance: SSE/TSS = %v", sse/tss)
	}
}

// Fit is a convenience for standalone trees: it bins X itself.
func Fit(X [][]float64, y []float64, opts Options) (*Tree, *Binner, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, nil, errors.New("tree: bad input shape")
	}
	binner := NewBinner(X, MaxBins)
	binned := binner.BinMatrix(X)
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	t, err := Grow(binned, binner, y, rows, opts)
	return t, binner, err
}

// NumNodes returns the number of nodes (for tests and size accounting).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Depth returns the maximum depth of the tree. The walk is iterative
// with an explicit stack: imported trees are only validated structurally,
// so a pathologically deep chain must not blow the goroutine stack, and
// the explicit stack costs one allocation instead of a closure per call.
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	type frame struct {
		id    int32
		depth int
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{id: 0, depth: 0}
	max := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[f.id]
		if nd.feature < 0 {
			if f.depth > max {
				max = f.depth
			}
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return max
}
