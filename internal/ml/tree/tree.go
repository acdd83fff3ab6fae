// Package tree implements histogram-based CART regression trees — the
// weak learners of the GBDT models and the members of the random-forest
// baseline. Features are quantile-binned once (up to 255 bins) so node
// splitting is a single linear scan per feature, which keeps boosted
// ensembles tractable on campaign-sized datasets.
package tree

import (
	"errors"
	"math"
	"sort"

	"lumos5g/internal/par"
	"lumos5g/internal/rng"
)

// MaxBins is the number of histogram bins per feature.
const MaxBins = 255

// Options configures tree induction.
type Options struct {
	// MaxDepth bounds tree depth (root = depth 0). <=0 means 6.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf. <=0 means 1.
	MinLeaf int
	// FeatureFrac is the fraction of features considered per split
	// (random forests use < 1). <=0 or >1 means all features.
	FeatureFrac float64
	// Rng supplies randomness for feature subsampling; may be nil when
	// FeatureFrac covers all features.
	Rng *rng.Source
	// Workers enables candidate-split parallelism: at nodes with at
	// least parallelMinRows samples the per-feature histogram scans run
	// on up to Workers goroutines. Each feature's best split is computed
	// independently and the winner is reduced serially in candidate
	// order, so the grown tree is bit-identical to a serial fit
	// (including tie-breaks). <=1 means serial.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 6
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 1
	}
	if o.FeatureFrac <= 0 || o.FeatureFrac > 1 {
		o.FeatureFrac = 1
	}
	return o
}

// Binner quantile-bins a feature matrix.
type Binner struct {
	// Edges[f] holds ascending bin upper edges for feature f; a value v
	// falls in the first bin whose edge is >= v.
	Edges [][]float64
}

// NewBinner computes quantile bin edges from training data (row-major X).
func NewBinner(X [][]float64, bins int) *Binner {
	if bins <= 1 || bins > MaxBins {
		bins = MaxBins
	}
	nf := len(X[0])
	b := &Binner{Edges: make([][]float64, nf)}
	vals := make([]float64, len(X))
	for f := 0; f < nf; f++ {
		for i, row := range X {
			vals[i] = row[f]
		}
		sort.Float64s(vals)
		var edges []float64
		for q := 1; q < bins; q++ {
			idx := q * (len(vals) - 1) / bins
			e := vals[idx]
			if len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		b.Edges[f] = edges
	}
	return b
}

// BinValue maps one feature value to its bin index.
func (b *Binner) BinValue(f int, v float64) uint8 {
	edges := b.Edges[f]
	// Binary search: first edge >= v.
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint8(lo)
}

// BinMatrix transforms X into feature-major binned columns.
func (b *Binner) BinMatrix(X [][]float64) [][]uint8 {
	nf := len(b.Edges)
	cols := make([][]uint8, nf)
	for f := 0; f < nf; f++ {
		col := make([]uint8, len(X))
		for i, row := range X {
			col[i] = b.BinValue(f, row[f])
		}
		cols[f] = col
	}
	return cols
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64 // raw-value threshold: go left when v <= threshold
	binThresh uint8
	left      int32
	right     int32
	value     float64
}

// Tree is a fitted regression tree.
type Tree struct {
	nodes []node
	// Gain[f] accumulates the total variance reduction attributed to
	// feature f — the raw material of GDBT feature importance (Fig 22).
	Gain []float64
}

// Grow fits a regression tree on the given rows of a pre-binned dataset.
// binned is feature-major (binned[f][row]), edges come from the Binner,
// y are the targets, rows are the sample indices to use. rows is left
// untouched: Grow partitions a copy (see Grower for the reusable form).
func Grow(binned [][]uint8, binner *Binner, y []float64, rows []int, opts Options) (*Tree, error) {
	var g Grower
	return g.Grow(binned, binner, y, append([]int(nil), rows...), opts)
}

// Grower grows trees one after another and reuses its buffers across
// them: the partition scratch, the per-node candidate and split slices,
// the node list under construction and the leaf list. A tree it grows is
// bit-identical to Grow's on the same rows in the same order. A Grower
// must not be used by two goroutines at once; its zero value is ready.
type Grower struct {
	scratch []int
	// all is the every-feature candidate list 0..nf-1, built once.
	all    []int
	splits []splitCandidate
	nodes  []node
	leaves []Leaf
}

// Leaf is one leaf of the last tree a Grower grew, with the rows that
// reached it while the tree grew.
type Leaf struct {
	// Value is the leaf's estimate, the exact float PredictBinned
	// returns for each of Rows.
	Value float64
	// Rows aliases the rows slice passed to Grow.
	Rows []int
}

// Grow fits a tree exactly like the package-level Grow, but partitions
// rows in place: on return each leaf's rows are contiguous in rows, and
// Leaves lists them. The returned tree shares no memory with the Grower.
func (g *Grower) Grow(binned [][]uint8, binner *Binner, y []float64, rows []int, opts Options) (*Tree, error) {
	if len(binned) == 0 || len(rows) == 0 {
		return nil, errors.New("tree: empty input")
	}
	opts = opts.withDefaults()
	if cap(g.scratch) < len(rows) {
		g.scratch = make([]int, len(rows))
	}
	g.nodes, g.leaves = g.nodes[:0], g.leaves[:0]
	t := &Tree{Gain: make([]float64, len(binned))}
	g.grow(t, binned, binner, y, rows, 0, opts)
	t.nodes = append([]node(nil), g.nodes...)
	return t, nil
}

// Leaves returns the leaves of the last grown tree, left to right. The
// slice and its Rows are valid until the next Grow.
func (g *Grower) Leaves() []Leaf { return g.leaves }

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

// grow recursively builds the subtree over rows into g.nodes, recording
// Gain in t, and returns its node id. Nodes are numbered in preorder.
func (g *Grower) grow(t *Tree, binned [][]uint8, binner *Binner, y []float64, rows []int, depth int, opts Options) int32 {
	var sum, sumsq float64
	for _, r := range rows {
		sum += y[r]
		sumsq += y[r] * y[r]
	}
	n := float64(len(rows))
	mean := sum / n
	id := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{feature: -1, value: mean})

	if depth >= opts.MaxDepth || len(rows) < 2*opts.MinLeaf {
		return g.leaf(id, rows)
	}
	parentSSE := sumsq - sum*sum/n

	// The candidate and split slices are dead before this node recurses,
	// so one of each serves every node.
	features := g.candidates(len(binned), opts)
	if cap(g.splits) < len(features) {
		g.splits = make([]splitCandidate, len(features))
	}
	splits := g.splits[:len(features)]
	if opts.Workers > 1 && len(rows) >= parallelMinRows && len(features) >= 2 {
		par.Do(opts.Workers, len(features), func(k int) {
			f := features[k]
			splits[k] = scanFeature(binned[f], len(binner.Edges[f])+1, rows, y, sum, n, opts.MinLeaf)
		})
	} else {
		// Inline, so the serial path allocates no closure per node.
		for k, f := range features {
			splits[k] = scanFeature(binned[f], len(binner.Edges[f])+1, rows, y, sum, n, opts.MinLeaf)
		}
	}

	// Serial reduction in candidate order: a strictly greater gain wins,
	// so ties resolve to the earliest candidate exactly as the serial
	// scan did.
	bestFeat, bestBin := -1, 0
	bestGain := 1e-12
	for k, sp := range splits {
		if sp.gain > bestGain {
			bestGain = sp.gain
			bestFeat = features[k]
			bestBin = sp.bin
		}
	}

	if bestFeat < 0 || bestGain <= 1e-12 || parentSSE <= 0 {
		return g.leaf(id, rows)
	}

	// Stable in-place partition: left rows compact forward into rows
	// itself (the write index never passes the read index), right rows
	// are staged in the shared scratch buffer and copied back after the
	// lefts. Row order within each side is exactly what the old
	// two-append loop produced, so the grown tree is unchanged — but the
	// per-node left/right allocations are gone. grow recurses on a single
	// goroutine (only the candidate scans fan out), so the scratch buffer
	// is never used by two partitions at once.
	col := binned[bestFeat]
	scratch := g.scratch
	nl, nr := 0, 0
	for _, r := range rows {
		if int(col[r]) <= bestBin {
			rows[nl] = r
			nl++
		} else {
			scratch[nr] = r
			nr++
		}
	}
	if nl == 0 || nr == 0 {
		return g.leaf(id, rows)
	}
	copy(rows[nl:], scratch[:nr])

	t.Gain[bestFeat] += bestGain
	nd := &g.nodes[id]
	nd.feature = bestFeat
	nd.binThresh = uint8(bestBin)
	nd.threshold = binner.Edges[bestFeat][bestBin]
	left := g.grow(t, binned, binner, y, rows[:nl], depth+1, opts)
	right := g.grow(t, binned, binner, y, rows[nl:], depth+1, opts)
	g.nodes[id].left, g.nodes[id].right = left, right
	return id
}

// leaf records node id, already a leaf, with the rows that reached it.
// Later partitions touch only other nodes' ranges of the row buffer, so
// rows keeps its contents until the next Grow.
func (g *Grower) leaf(id int32, rows []int) int32 {
	g.leaves = append(g.leaves, Leaf{Value: g.nodes[id].value, Rows: rows})
	return id
}

// parallelMinRows is the node size below which the candidate-split scan
// stays serial: with fewer samples the histogram passes are too cheap to
// amortise a goroutine handoff.
const parallelMinRows = 2048

// splitCandidate is one feature's best split: gain <= 0 means the
// feature offers no admissible split.
type splitCandidate struct {
	gain float64
	bin  int
}

// scanFeature computes the best split of one binned feature column over
// rows. It touches only its arguments and its return value, so any
// number of scans may run concurrently; each produces the same floats as
// the serial loop did.
func scanFeature(col []uint8, nb int, rows []int, y []float64, sum, n float64, minLeaf int) splitCandidate {
	best := splitCandidate{gain: 0}
	if nb < 2 {
		return best
	}
	var histSum [MaxBins + 1]float64
	var histCnt [MaxBins + 1]int
	for _, r := range rows {
		b := col[r]
		histSum[b] += y[r]
		histCnt[b]++
	}
	var leftSum float64
	var leftCnt int
	for b := 0; b < nb-1; b++ {
		leftSum += histSum[b]
		leftCnt += histCnt[b]
		rightCnt := len(rows) - leftCnt
		if leftCnt < minLeaf || rightCnt < minLeaf {
			continue
		}
		rightSum := sum - leftSum
		// Gain = parent SSE - (left SSE + right SSE); with fixed
		// sums of squares this reduces to the between-group term.
		gain := leftSum*leftSum/float64(leftCnt) +
			rightSum*rightSum/float64(rightCnt) - sum*sum/n
		if gain > best.gain {
			best = splitCandidate{gain: gain, bin: b}
		}
	}
	return best
}

// candidates returns the candidate feature set for one split: every
// feature, or a random FeatureFrac of them drawn from opts.Rng per node.
func (g *Grower) candidates(nf int, opts Options) []int {
	k := int(math.Ceil(opts.FeatureFrac * float64(nf)))
	if k >= nf || opts.Rng == nil {
		if len(g.all) != nf {
			g.all = make([]int, nf)
			for i := range g.all {
				g.all[i] = i
			}
		}
		return g.all
	}
	perm := opts.Rng.Perm(nf)
	return perm[:k]
}

// Predict returns the tree's estimate for one raw feature vector.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// PredictBinned returns the estimate for a pre-binned row (training-time
// fast path used by gradient boosting).
func (t *Tree) PredictBinned(binned [][]uint8, row int) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if binned[nd.feature][row] <= nd.binThresh {
			i = nd.left
		} else {
			i = nd.right
		}
	}
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
