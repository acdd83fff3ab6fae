package compiled

import (
	"math"
	"testing"

	"lumos5g/internal/ml/tree"
)

// Edge-case pins for the quantized batch kernels on hand-built trees:
// every kernel must reproduce the interpreted walk bit for bit at the
// leaf-mask limits (bit 63, a 65-leaf tree), on degenerate trees and
// features, on bin edges, extreme and non-finite values, and at every
// batch-size boundary.

// kernelEdges are the test features' bin edges: a full 254-edge feature
// (so the top bin is 254), a 61-edge feature straddling zero, small
// ones, one no tree splits on, and one with no edges at all.
func kernelEdges() [][]float64 {
	e0 := make([]float64, 254)
	for i := range e0 {
		e0[i] = float64(i-127) * 0.5
	}
	e1 := make([]float64, 61)
	for i := range e1 {
		e1[i] = float64(i - 30)
	}
	return [][]float64{e0, e1, {-1e6, -2, 3, 1e6}, {0, 1}, nil, {10, 20, 30}, {-5, 5}}
}

// kdTree builds a complete tree of the given depth in preorder,
// splitting feats[level % len(feats)] at the middle bin of the range
// its ancestors leave, so every leaf is reachable. Leaf values count up
// from *leaf.
func kdTree(t testing.TB, depth int, feats []int, edges [][]float64, leaf *float64) []tree.NodeDTO {
	lo := make([]int, len(edges))
	hi := make([]int, len(edges))
	for f := range edges {
		hi[f] = len(edges[f])
	}
	var nodes []tree.NodeDTO
	var grow func(level int) int32
	grow = func(level int) int32 {
		id := int32(len(nodes))
		nodes = append(nodes, tree.NodeDTO{Feature: -1})
		f := feats[level%len(feats)]
		if level == depth {
			nodes[id].Value = *leaf
			*leaf += 1.25
			return id
		}
		if lo[f] >= hi[f] {
			t.Fatalf("feature %d has no bin left to split at level %d", f, level)
		}
		mid := (lo[f] + hi[f]) / 2
		saved := hi[f]
		hi[f] = mid
		l := grow(level + 1)
		hi[f], saved = saved, lo[f]
		lo[f] = mid + 1
		r := grow(level + 1)
		lo[f] = saved
		nodes[id] = tree.NodeDTO{Feature: int32(f), Threshold: edges[f][mid], Left: l, Right: r}
		return id
	}
	grow(0)
	return nodes
}

// combTree builds a depth-d comb on feature f in preorder: every split
// sends one side to a leaf (the left side when leftLeaves, else the
// right) and the other to the next split, so no split is balanced.
func combTree(depth, f int, edges [][]float64, leftLeaves bool, leaf *float64) []tree.NodeDTO {
	var nodes []tree.NodeDTO
	var grow func(level, lo, hi int) int32
	grow = func(level, lo, hi int) int32 {
		id := int32(len(nodes))
		nodes = append(nodes, tree.NodeDTO{Feature: -1, Value: *leaf})
		if level == depth {
			*leaf += 1.25
			return id
		}
		mid := (lo + hi) / 2
		var l, r int32
		if leftLeaves {
			l = grow(depth, lo, mid)
			r = grow(level+1, mid+1, hi)
		} else {
			l = grow(level+1, lo, mid)
			r = grow(depth, mid+1, hi)
		}
		nodes[id] = tree.NodeDTO{Feature: int32(f), Threshold: edges[f][mid], Left: l, Right: r}
		return id
	}
	grow(0, 0, len(edges[f]))
	return nodes
}

// splitLast turns a preorder tree's last node — its rightmost leaf —
// into a split on feature f at edge bin, adding one leaf.
func splitLast(nodes []tree.NodeDTO, f, bin int, edges [][]float64) []tree.NodeDTO {
	last := len(nodes) - 1
	v := nodes[last].Value
	nodes[last] = tree.NodeDTO{Feature: int32(f), Threshold: edges[f][bin], Left: int32(last + 1), Right: int32(last + 2)}
	return append(nodes, tree.NodeDTO{Feature: -1, Value: v + 0.5}, tree.NodeDTO{Feature: -1, Value: v + 0.75})
}

func importTree(t testing.TB, nodes []tree.NodeDTO) *tree.Tree {
	t.Helper()
	tr, err := tree.Import(tree.TreeDTO{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// interpret is the interpreted ensembles' accumulation: init, then
// scale*leaf per tree in order, then the optional division.
func interpret(trees []*tree.Tree, cfg Config, x []float64) float64 {
	acc := cfg.Init
	for _, tr := range trees {
		acc += cfg.Scale * tr.Predict(x)
	}
	if cfg.Div != 0 {
		acc /= cfg.Div
	}
	return acc
}

// edgeRows crosses, per feature, every edge, its float neighbours, the
// midpoints between edges, ±0, ±5e-324, ±1e300, ±Inf and NaN of either
// sign into n rows. The interpreted walk sends NaN right at every split
// (x <= threshold is false), whatever its sign bit.
func edgeRows(edges [][]float64, n int) [][]float64 {
	cands := make([][]float64, len(edges))
	for f, fe := range edges {
		c := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e300, -1e300,
			math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1)}
		for i, v := range fe {
			c = append(c, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
			if i > 0 {
				c = append(c, (v+fe[i-1])/2)
			}
		}
		cands[f] = c
	}
	strides := []int{1, 7, 3, 5, 11, 13, 2}
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, len(edges))
		for f, c := range cands {
			row[f] = c[(i*strides[f%len(strides)]+i/len(c))%len(c)]
		}
		rows[i] = row
	}
	return rows
}

// edgeCase is one hand-built ensemble, compiled with and without edges.
type edgeCase struct {
	name   string
	kernel string // the batch kernel Compile must select
	trees  []*tree.Tree
	cfg    Config // with edges
	e, raw *Ensemble
}

// kernels lists every batch entry point the case can run.
func (c edgeCase) kernels() map[string]func([][]float64, []float64, int, int) {
	k := map[string]func([][]float64, []float64, int, int){
		"PredictInto": c.e.PredictInto,
		"banked":      c.e.predictIntoQuantized,
		"raw":         c.raw.PredictInto,
	}
	if c.e.Kernel() == kernelBitmask {
		k["bitmask"] = c.e.predictIntoBitmask
	}
	return k
}

// edgeCases builds the hand-built ensembles: a complete depth-6 tree
// (64 leaves, so the exit can be bit 63), boosted and forest mixes with
// a lone leaf, a single split at the top edge, a three-feature tree,
// lopsided and comb-shaped trees (unequal leaf counts at every split),
// stumps only, and one 65-leaf tree (which forces the banked walk).
// No tree splits on features 3 and 4.
func edgeCases(tb testing.TB) []edgeCase {
	edges := kernelEdges()
	leaf := 1.0
	full := kdTree(tb, 6, []int{0, 1}, edges, &leaf)
	wide := splitLast(kdTree(tb, 6, []int{1, 0}, edges, &leaf), 2, 2, edges)
	small := kdTree(tb, 3, []int{2, 0, 1}, edges, &leaf)
	lopsided := splitLast(kdTree(tb, 5, []int{1, 0}, edges, &leaf), 2, 1, edges)
	rightComb := combTree(6, 0, edges, true, &leaf)
	leftComb := combTree(6, 1, edges, false, &leaf)
	stump := []tree.NodeDTO{{Feature: -1, Value: -3.5}}
	split := []tree.NodeDTO{{Feature: 0, Threshold: edges[0][253], Left: 1, Right: 2}, {Feature: -1, Value: 2}, {Feature: -1, Value: 9}}
	specs := []struct {
		name   string
		trees  [][]tree.NodeDTO
		cfg    Config
		kernel string
	}{
		{"complete depth 6", [][]tree.NodeDTO{full}, Config{Scale: 1}, kernelBitmask},
		{"boosted mix", [][]tree.NodeDTO{full, stump, split, small, lopsided, full}, Config{Init: 3.5, Scale: 0.1}, kernelBitmask},
		{"forest mix", [][]tree.NodeDTO{small, rightComb, full, split, leftComb, stump}, Config{Scale: 1, Div: 6}, kernelBitmask},
		{"stumps only", [][]tree.NodeDTO{stump, stump}, Config{Init: 1, Scale: 0.5}, kernelBitmask},
		{"a 65-leaf tree", [][]tree.NodeDTO{full, wide, stump}, Config{Init: -2, Scale: 0.1}, kernelBanked},
	}
	cases := make([]edgeCase, len(specs))
	for i, sp := range specs {
		c := edgeCase{name: sp.name, kernel: sp.kernel, cfg: sp.cfg}
		for _, nodes := range sp.trees {
			c.trees = append(c.trees, importTree(tb, nodes))
		}
		c.cfg.NumFeatures = len(edges)
		rawCfg := c.cfg
		c.cfg.Edges = edges
		var err error
		if c.e, err = Compile(c.trees, c.cfg); err != nil {
			tb.Fatal(err)
		}
		if c.raw, err = Compile(c.trees, rawCfg); err != nil {
			tb.Fatal(err)
		}
		cases[i] = c
	}
	return cases
}

func TestBatchKernelEdges(t *testing.T) {
	X := edgeRows(kernelEdges(), 2000)
	// 7, 8, 9: the banked walk's eight rows abreast; blockRows ± 1: the
	// row-block boundary.
	sizes := []int{1, 3, 4, 5, 7, 8, 9, blockRows - 1, blockRows, blockRows + 1, len(X)}
	for _, c := range edgeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if c.e.Kernel() != c.kernel || c.raw.Kernel() != kernelRaw {
				t.Fatalf("selected the %s and %s kernels, want %s and %s", c.e.Kernel(), c.raw.Kernel(), c.kernel, kernelRaw)
			}
			want := make([]float64, len(X))
			for i, x := range X {
				want[i] = interpret(c.trees, c.cfg, x)
				if got := c.e.Predict(x); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("row %d %v: one-row walk %v != interpreted %v", i, x, got, want[i])
				}
			}
			for name, run := range c.kernels() {
				for _, n := range sizes {
					out := make([]float64, n)
					run(X[:n], out, 0, n)
					for i := range out {
						if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s, %d rows: row %d %v: %v != interpreted %v", name, n, i, X[i], out[i], want[i])
						}
					}
				}
				// A [lo, hi) sub-range fills exactly that range.
				out := make([]float64, len(X))
				for i := range out {
					out[i] = math.NaN()
				}
				lo, hi := 37, 37+2*blockRows+5
				run(X, out, lo, hi)
				for i := range out {
					if inside := i >= lo && i < hi; inside && math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s ranged row %d: %v != %v", name, i, out[i], want[i])
					} else if !inside && !math.IsNaN(out[i]) {
						t.Fatalf("%s wrote row %d outside [%d, %d)", name, i, lo, hi)
					}
				}
			}
		})
	}
}

// TestCompleteTreeReachesEveryBit checks that the edge rows reach all
// 64 leaves of the complete tree, so the bitmask kernel's exit bit
// really spans 0..63 in TestBatchKernelEdges.
func TestCompleteTreeReachesEveryBit(t *testing.T) {
	c := edgeCases(t)[0]
	seen := map[float64]bool{}
	for _, x := range edgeRows(kernelEdges(), 2000) {
		seen[interpret(c.trees, c.cfg, x)] = true
	}
	if len(c.trees) != 1 || len(seen) != 64 {
		t.Fatalf("edge rows reach %d leaves of %d trees, want all 64 of one", len(seen), len(c.trees))
	}
}
