// Package compiled flattens fitted tree ensembles (random forest, GBDT
// regressor) into contiguous, branch-free layouts and
// evaluates them with the serving fast path's kernels: a one-row walker
// behind Predict and a batch kernel behind PredictInto
// (ml.BatchRegressor).
//
// The interpreted predictors walk per-tree []node slices (about 40 bytes
// per node) with an unpredictable branch at every split. The compiled
// form renumbers each tree breadth-first so a node's two children are
// adjacent (right = left+1, only left is stored), packs the quantized
// traversal state into 8-byte nodes, and makes leaves loop to themselves
// with an always-true comparison. A tree of depth D is then evaluated in
// exactly D data-independent steps
//
//	i = left[i] + (q[feat[i]] > bin[i])
//
// with no leaf test and no taken/not-taken split branch — the step is
// computed arithmetically, so deep pipelines never mispredict.
//
// Quantized nodes live in level banks rather than per-tree runs: bank d
// is the concatenation, tree by tree, of every tree's depth-d nodes
// (bank 0 is all T roots at indices 0..T-1), so one depth-step of
// adjacent trees touches one contiguous bank stretch. The one-row walker
// steps eight trees abreast, and the banked batch walk eight rows
// abreast, so their traversal chains are data-independent and their node
// and bin loads overlap instead of serialising on load latency. Trees
// shallower than the ensemble's maximum depth simply spin on their
// self-looping leaves for the extra steps.
//
// The walker and both batch kernels bin each query row once and compare
// uint8 bins. Compile takes each feature's bin edges from the trees
// themselves: the ascending, distinct thresholds they split that feature
// on. With bin(v) the index of the first edge >= v, every internal
// node's threshold t is one of its feature's edges, so
//
//	x[f] <= t   ⇔   bin(x[f]) <= bin(t)
//
// holds for every input by construction, and the quantized walk reaches
// the same leaf — and therefore produces the same float — as the
// interpreted walk. A NaN threshold, or more than 254 distinct
// thresholds on one feature, fails to compile; trees grown by tree.Grow
// take every threshold from the training Binner's at most 254 edges per
// feature. No edges are stored with a model.
//
// Compile picks one of two batch kernels (Kernel names it). Ensembles
// whose trees have at most 64 leaves take the bitmask kernel: in the
// manner of QuickScorer (Lucchese et al., SIGIR 2015) each tree's leaves
// are numbered left to right, and per (tree, split feature, bin) a table
// holds the AND of the leaf masks of the tree's nodes on that feature
// that a row in that bin fails; ANDing one table entry per split feature
// leaves the exit leaf as the lowest set bit, with no walk at all. Other
// ensembles take the banked batch walk.
//
// Equivalence contract: for every input, Predict and PredictInto return
// bit-identical floats to the interpreted ensemble's Predict — same
// float operations, applied in the same order. Per-leaf accumulation is
// acc = init; acc += scale*leaf (tree order); out = acc or acc/div —
// exactly the interpreted loops of forest.Predict and
// gbdt.Model.Predict. The parity tests in compiled_test.go and
// kernel_test.go and the ensemble packages enforce this for forest and
// GBDT across every kernel.
package compiled

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"lumos5g/internal/ml/tree"
)

// Config describes how leaf values aggregate into a prediction.
type Config struct {
	// NumFeatures is the model's feature dimensionality; every node's
	// split feature must be below it.
	NumFeatures int
	// Init is the accumulator's starting value (0 for a forest, the base
	// prediction for GBDT).
	Init float64
	// Scale multiplies every leaf value as it is accumulated (1 for a
	// forest, the learning rate for GBDT).
	Scale float64
	// Div, when non-zero, divides the final accumulator (the ensemble
	// size for a forest's mean; 0 for additive models).
	Div float64
}

// qnode is one node of the quantized kernel: 8 bytes, so a whole
// depth-6 tree of 127 nodes is ~1 KiB of hot state.
type qnode struct {
	feat uint16 // split feature (0 at leaves — any in-range value works)
	bin  uint8  // go left when q[feat] <= bin; leafBin at leaves
	_    uint8
	left int32 // global index of the left child; the node itself at leaves
}

// leafBin marks leaves in qnodes: quantized values never exceed 254
// (at most maxEdges edges per feature), so q <= 255 is always true and a
// leaf steps to its own left — itself — for the remaining fixed-depth
// steps.
const leafBin = 255

// maxEdges bounds the distinct split thresholds, and so the bin edges,
// of one feature: bins then run 0..maxEdges, below leafBin.
const maxEdges = leafBin - 1

// Ensemble is a compiled ensemble: every tree renumbered breadth-first
// (children adjacent, right = left+1) into the layout its kernels read,
// plus the per-tree traversal depths.
type Ensemble struct {
	nFeat  int
	init   float64
	scale  float64
	div    float64
	nNodes int
	kernel string // the batch kernel PredictInto runs (see Kernel)

	treeDepth []int32 // fixed traversal step count per tree
	maxDepth  int32   // max(treeDepth): the banked walk's step count

	// Quantized traversal state. lnodes and lvalue are the level-banked
	// layout described in the package docs: bank d holds every tree's
	// depth-d nodes, tree by tree, with tree t's root at index t; left
	// still points at the (bank d+1) left child, right = left+1, leaves
	// self-loop. qedges hold each feature's bin edges (its distinct split
	// thresholds) under the order-preserving uint64 mapping of
	// orderedBits, so binning runs on integer compares the compiler
	// if-converts instead of float compares it branches on.
	lnodes []qnode
	lvalue []float64
	qedges [][]uint64

	// Bitmask kernel tables (nil unless Kernel is "bitmask"). With mt =
	// mtrees[t], tree t splits on the features mfeat[mt.feat :
	// mt.feat+mt.nFeat]; the k-th of them owns the 256-entry table
	// midx[(mt.feat+k)*256:], whose entry for bin q indexes the tree's
	// mask pool mpool[mt.pool:], and mleaf[mt.leaf:] holds the tree's
	// leaf values left to right.
	mtrees []maskTree
	mfeat  []uint16
	midx   []uint8
	mpool  []uint64
	mleaf  []float64
}

// maskTree locates one tree's bitmask tables (see Ensemble).
type maskTree struct {
	feat, nFeat int32
	pool, leaf  int32
}

// Batch kernel names, as Kernel reports them.
const (
	kernelBitmask = "bitmask"
	kernelBanked  = "banked"
)

// maskLeaves is the bitmask kernel's per-tree leaf bound: one bit of a
// uint64 per leaf.
const maskLeaves = 64

// blockRows is the batch kernel's row-block size: large enough to
// amortise streaming each tree's node banks across the block (at 60+
// trees the banks outgrow L1, so per-block re-streaming is the batch
// kernel's dominant memory cost), small enough that the per-block
// accumulator and bin buffers stay cache-resident. A/B-measured against
// 64/128/512 on the 60-tree depth-6 reference ensemble; 256 was the
// floor.
const blockRows = 256

// Compile flattens trees into an Ensemble. Trees must be non-empty and
// structurally valid (as produced by tree.Grow or tree.Import), with no
// NaN threshold and at most 254 distinct thresholds per feature.
func Compile(trees []*tree.Tree, cfg Config) (*Ensemble, error) {
	if len(trees) == 0 {
		return nil, errors.New("compiled: no trees")
	}
	if cfg.NumFeatures <= 0 || cfg.NumFeatures > 1<<16 {
		return nil, errors.New("compiled: feature count out of range")
	}
	e := &Ensemble{
		nFeat:     cfg.NumFeatures,
		init:      cfg.Init,
		scale:     cfg.Scale,
		div:       cfg.Div,
		treeDepth: make([]int32, len(trees)),
	}
	e.qedges = make([][]uint64, cfg.NumFeatures)
	bfs := make([]treeBFS, len(trees))
	for ti, t := range trees {
		b, err := bfsRenumber(ti, t.Export(), e.qedges)
		if err != nil {
			return nil, err
		}
		bfs[ti] = b
		e.nNodes += len(b.order)
		e.treeDepth[ti] = b.depth
		e.maxDepth = max(e.maxDepth, b.depth)
	}
	for i := range bfs {
		bfs[i].quantize(e.qedges)
	}
	e.buildBanks(bfs)
	e.kernel = kernelBanked
	if e.buildMasks(bfs) {
		e.kernel = kernelBitmask
	}
	return e, nil
}

// treeBFS is one tree's breadth-first renumbering: the old node ids in
// dequeue order, each entry's BFS level and (quantized) split bin, the
// inverse map, the tree depth (fixed traversal step count) and its leaf
// count.
type treeBFS struct {
	dto    tree.TreeDTO
	order  []int32 // old ids in BFS order
	level  []int32 // BFS level per order entry (levels are contiguous runs)
	bin    []uint8 // split bin per order entry (0 at leaves), set by quantize
	newID  []int32 // old id -> BFS position
	depth  int32
	leaves int
}

// bfsRenumber walks one tree breadth-first, validating it on the way
// and adding every split's threshold to its feature's edges. BFS order
// is what makes every layout branch-free friendly: a parent's two
// children are enqueued together, so they land adjacently (only the left
// index need be stored), and BFS order is level order, so each level is
// a contiguous run the bank builder can regroup. The seen guard rejects
// cyclic or converging node graphs that would otherwise loop the
// fixed-depth traversal astray.
func bfsRenumber(ti int, dto tree.TreeDTO, qedges [][]uint64) (treeBFS, error) {
	n := int32(len(dto.Nodes))
	if n == 0 {
		return treeBFS{}, fmt.Errorf("compiled: tree %d is empty", ti)
	}
	order := make([]int32, 0, n)
	level := make([]int32, 0, n)
	newID := make([]int32, n)
	seen := make([]bool, n)
	order = append(order, 0)
	level = append(level, 0)
	seen[0] = true
	depth, leaves := int32(0), 0
	for head := 0; head < len(order); head++ {
		old := order[head]
		newID[old] = int32(head)
		lv := level[head]
		if lv > depth {
			depth = lv
		}
		nd := dto.Nodes[old]
		if nd.Feature < 0 {
			leaves++
			continue
		}
		if int(nd.Feature) >= len(qedges) {
			return treeBFS{}, fmt.Errorf("compiled: tree %d node %d splits feature %d of %d", ti, old, nd.Feature, len(qedges))
		}
		if nd.Left < 0 || nd.Left >= n || nd.Right < 0 || nd.Right >= n {
			return treeBFS{}, fmt.Errorf("compiled: tree %d node %d child out of range", ti, old)
		}
		if seen[nd.Left] || seen[nd.Right] || nd.Left == nd.Right {
			return treeBFS{}, fmt.Errorf("compiled: tree %d node %d children revisit a node", ti, old)
		}
		if err := addEdge(&qedges[nd.Feature], nd.Threshold); err != nil {
			return treeBFS{}, fmt.Errorf("compiled: tree %d node %d: %w", ti, old, err)
		}
		seen[nd.Left], seen[nd.Right] = true, true
		order = append(order, nd.Left, nd.Right)
		level = append(level, lv+1, lv+1)
	}
	return treeBFS{dto: dto, order: order, level: level, newID: newID, depth: depth, leaves: leaves}, nil
}

// addEdge adds a split threshold to its feature's ascending, distinct,
// order-mapped edges. Trees share most thresholds (every tree of an
// ensemble splits on the same training bin edges), so the lookup — the
// kernels' own lower bound — usually finds it and inserts nothing; a
// feature holds at most maxEdges, which bounds each insert.
func addEdge(qe *[]uint64, t float64) error {
	if math.IsNaN(t) {
		return errors.New("NaN threshold")
	}
	u := orderedBits(t)
	i := int(binValueBits(*qe, u))
	if i < len(*qe) && (*qe)[i] == u {
		return nil
	}
	if len(*qe) == maxEdges {
		return fmt.Errorf("more than %d distinct thresholds on one feature", maxEdges)
	}
	*qe = slices.Insert(*qe, i, u)
	return nil
}

// quantize sets every split's bin: its threshold's index among its
// feature's edges, which binValueBits — the lower bound the kernels bin
// rows with — finds exactly, because the threshold is one of them.
func (b *treeBFS) quantize(qedges [][]uint64) {
	b.bin = make([]uint8, len(b.order))
	for pos, old := range b.order {
		if nd := &b.dto.Nodes[old]; nd.Feature >= 0 {
			b.bin[pos] = binValueBits(qedges[nd.Feature], orderedBits(nd.Threshold))
		}
	}
}

// buildBanks regroups the BFS-renumbered trees into the level-banked
// quantized layout. Bank d is the concatenation, tree by tree, of each
// tree's level-d nodes in BFS order; because BFS enqueues siblings
// together and levels are contiguous runs, a parent's children stay
// adjacent inside bank d+1 (right = left+1 survives the regrouping),
// and bank 0 puts tree t's root at global index t.
func (e *Ensemble) buildBanks(bfs []treeBFS) {
	nTrees := len(bfs)
	nLevels := int(e.maxDepth) + 1
	counts := make([][]int32, nTrees) // counts[t][lv]: tree t's level-lv node count
	starts := make([][]int32, nTrees) // starts[t][lv]: BFS position where level lv begins
	bankSize := make([]int32, nLevels)
	for t, b := range bfs {
		c := make([]int32, nLevels)
		s := make([]int32, nLevels)
		for pos, lv := range b.level {
			if c[lv] == 0 {
				s[lv] = int32(pos)
			}
			c[lv]++
		}
		counts[t], starts[t] = c, s
		for lv, n := range c {
			bankSize[lv] += n
		}
	}
	// gOff[t][lv]: global index of tree t's first level-lv node.
	cur := make([]int32, nLevels)
	off := int32(0)
	for lv, n := range bankSize {
		cur[lv] = off
		off += n
	}
	gOff := make([][]int32, nTrees)
	for t := 0; t < nTrees; t++ {
		g := make([]int32, nLevels)
		for lv := 0; lv < nLevels; lv++ {
			g[lv] = cur[lv]
			cur[lv] += counts[t][lv]
		}
		gOff[t] = g
	}
	e.lnodes = make([]qnode, off)
	e.lvalue = make([]float64, off)
	for t, b := range bfs {
		for pos, old := range b.order {
			lv := b.level[pos]
			g := gOff[t][lv] + int32(pos) - starts[t][lv]
			nd := b.dto.Nodes[old]
			if nd.Feature < 0 {
				e.lnodes[g] = qnode{feat: 0, bin: leafBin, left: g}
				e.lvalue[g] = nd.Value
				continue
			}
			lp := b.newID[nd.Left] // BFS position of the left child
			gl := gOff[t][lv+1] + lp - starts[t][lv+1]
			e.lnodes[g] = qnode{feat: uint16(nd.Feature), bin: b.bin[pos], left: gl}
		}
	}
}

// maskSplit is one internal node as the bitmask builder sees it: its
// split feature and bin, and the mask of the leaves its failed test
// rules out.
type maskSplit struct {
	feat uint16
	bin  uint8
	mask uint64
}

// buildMasks builds the bitmask kernel's tables from the BFS-renumbered
// trees. Each tree's leaves are numbered left to right; a node whose
// test fails (q[f] > bin) rules out exactly the leaves of its left
// subtree, so its mask clears that contiguous bit run. For every
// feature the tree splits on, table entry q is the AND of the masks of
// the tree's nodes on that feature whose bin is below q, stored as an
// index into the tree's pool of masks: pool[0] is all ones, and each
// further entry is the running AND after one more split, so a tree of
// at most 64 leaves (at most 63 splits) needs at most 64.
//
// buildMasks builds nothing and reports false when a tree has more than
// maskLeaves leaves.
func (e *Ensemble) buildMasks(bfs []treeBFS) bool {
	// Size every array exactly up front: one 256-entry table per (tree,
	// feature it splits on), one value per leaf, and at most one pool
	// mask per split plus each tree's all-ones entry.
	stamp := make([]int32, e.nFeat) // stamp[f] == t+1: tree t splits on f
	nTab, nLeaf := 0, 0
	for t, b := range bfs {
		if b.leaves > maskLeaves {
			return false
		}
		for _, old := range b.order {
			if f := b.dto.Nodes[old].Feature; f >= 0 && stamp[f] != int32(t+1) {
				stamp[f] = int32(t + 1)
				nTab++
			}
		}
		nLeaf += b.leaves
	}
	e.mtrees = make([]maskTree, len(bfs))
	e.mfeat = make([]uint16, 0, nTab)
	e.midx = make([]uint8, nTab*256)
	e.mpool = make([]uint64, 0, len(bfs)+e.nNodes-nLeaf)
	e.mleaf = make([]float64, nLeaf)
	var (
		cnt    []int32 // leaves under each BFS position
		first  []int32 // number of the leftmost leaf under each BFS position
		splits []maskSplit
	)
	leafOff := 0
	for t, b := range bfs {
		n := len(b.order)
		cnt, first = slices.Grow(cnt[:0], n)[:n], slices.Grow(first[:0], n)[:n]
		// Children sit after their parent in BFS order, so a reverse pass
		// counts leaves bottom-up and a forward pass numbers them top-down.
		for pos := n - 1; pos >= 0; pos-- {
			nd := &b.dto.Nodes[b.order[pos]]
			if nd.Feature < 0 {
				cnt[pos] = 1
				continue
			}
			l := b.newID[nd.Left]
			cnt[pos] = cnt[l] + cnt[l+1]
		}
		mt := maskTree{feat: int32(len(e.mfeat)), pool: int32(len(e.mpool)), leaf: int32(leafOff)}
		leaf := e.mleaf[leafOff : leafOff+b.leaves]
		leafOff += b.leaves
		splits = splits[:0]
		first[0] = 0
		for pos := 0; pos < n; pos++ {
			nd := &b.dto.Nodes[b.order[pos]]
			if nd.Feature < 0 {
				leaf[first[pos]] = nd.Value
				continue
			}
			l := b.newID[nd.Left]
			first[l], first[l+1] = first[pos], first[pos]+cnt[l]
			run := uint64(1)<<uint(cnt[l]) - 1 // cnt[l] < 64: the right subtree has a leaf
			splits = append(splits, maskSplit{feat: uint16(nd.Feature), bin: b.bin[pos], mask: ^(run << uint(first[pos]))})
		}
		slices.SortFunc(splits, func(a, b maskSplit) int {
			if a.feat != b.feat {
				return int(a.feat) - int(b.feat)
			}
			return int(a.bin) - int(b.bin)
		})
		e.mpool = append(e.mpool, ^uint64(0))
		for i := 0; i < len(splits); {
			f := splits[i].feat
			tab := e.midx[len(e.mfeat)*256:][:256]
			e.mfeat = append(e.mfeat, f)
			m, cur, q := ^uint64(0), uint8(0), 0
			for ; i < len(splits) && splits[i].feat == f; i++ {
				s := splits[i]
				for ; q <= int(s.bin); q++ {
					tab[q] = cur
				}
				m &= s.mask
				e.mpool = append(e.mpool, m)
				cur = uint8(len(e.mpool) - 1 - int(mt.pool))
			}
			for ; q < 256; q++ {
				tab[q] = cur
			}
		}
		mt.nFeat = int32(len(e.mfeat)) - mt.feat
		e.mtrees[t] = mt
	}
	return true
}

// orderedBits maps a float64 to a uint64 such that u(x) < u(y) ⇔ x < y
// for non-NaN x and y: negatives have all bits flipped, positives only
// the sign bit, and v+0 first folds -0 into +0 so the two zeros (equal
// as floats) map to the same integer. Every NaN, whatever its sign bit,
// maps to all ones, above every edge, so it bins past the top edge and
// goes right at every split, as the interpreted walk's x <= threshold
// (false for NaN) does; the nan term does that without a branch,
// because a v != v branch made BenchmarkCompiledBatch ~12% slower.
// Inputs are binned on these integers because integer compares
// if-convert to branch-free selects.
func orderedBits(v float64) uint64 {
	b := math.Float64bits(v + 0)
	nan := (0x7FF0000000000000 - b&^(1<<63)) >> 63 // 1 iff v is NaN
	return b ^ (uint64(int64(b)>>63) | 1<<63) | -nan
}

// binValueBits maps an order-mapped value to its bin, the index of the
// first order-mapped edge >= u, with a branchless lower bound over the
// len(qe)+1 possible bins. The compare is bits.Sub64's borrow flag and
// the interval update a masked add, so binning takes no data-dependent
// mispredicts — the compiler's own if-conversion does not fire on this
// shape. The probes skip bounds checks: the bin stays in [base,
// base+n-1] ⊆ [0, len(qe)], so every probe, at most base+n-2, is in
// range, and an empty qe probes nothing and bins everything to 0. Block
// binning is the batch kernels' second-hottest path after traversal.
func binValueBits(qe []uint64, u uint64) uint8 {
	p := unsafe.Pointer(unsafe.SliceData(qe))
	base, n := uint64(0), uint64(len(qe))+1
	for n > 1 {
		half := n >> 1
		_, borrow := bits.Sub64(*(*uint64)(unsafe.Add(p, uintptr(base+half-1)*8)), u, 0) // borrow = edge < u
		base += half & (0 - borrow)
		n -= half
	}
	return uint8(base)
}

// NumTrees returns the compiled ensemble size.
func (e *Ensemble) NumTrees() int { return len(e.treeDepth) }

// Kernel names the batch kernel PredictInto runs, chosen at Compile
// time: "bitmask" when every tree has at most 64 leaves, "banked"
// otherwise. Both bin rows on the edges Compile took from the splits.
func (e *Ensemble) Kernel() string { return e.kernel }

// qstep computes one branch-free traversal step: 0 (left) when
// qv <= bin, 1 (right) otherwise. Both operands are < 2^8, so the
// subtraction's sign bit is exactly the comparison.
func qstep(bin uint8, qv uint8) int32 {
	return int32((uint32(bin) - uint32(qv)) >> 31)
}

// Predict evaluates one feature vector with the one-row walker. It bins
// the row once, then walks the ensemble eight trees abreast with
// register-resident cursors: the eight chains are data-independent, and
// because adjacent trees' level slices are adjacent inside each bank,
// one depth-step of a tree group touches one contiguous bank stretch
// (bank 0 holds all eight roots in one or two cache lines). Trees
// shallower than maxDepth spin on their self-looping leaves, so every
// group walks the same fixed maxDepth steps; leaf values accumulate in
// tree order — the same adds in the same order as the interpreted
// ensemble. Bounds-check elision via unsafe follows the same
// Compile-time in-range proof as the batch kernel.
func (e *Ensemble) Predict(x []float64) float64 {
	var qbuf [64]uint8
	q := qbuf[:]
	if e.nFeat > len(qbuf) {
		q = make([]uint8, e.nFeat)
	}
	for f := 0; f < e.nFeat; f++ {
		q[f] = binValueBits(e.qedges[f], orderedBits(x[f]))
	}
	nTrees := len(e.treeDepth)
	maxDepth := e.maxDepth
	nodeBase := unsafe.Pointer(&e.lnodes[0])
	valBase := unsafe.Pointer(&e.lvalue[0])
	qBase := unsafe.Pointer(&q[0])
	acc := e.init
	scale := e.scale
	t := 0
	for ; t+8 <= nTrees; t += 8 {
		root := int32(t)
		i0, i1, i2, i3 := root, root+1, root+2, root+3
		i4, i5, i6, i7 := root+4, root+5, root+6, root+7
		for d := maxDepth; d > 0; d-- {
			n0 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i0))*8))
			n1 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i1))*8))
			n2 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i2))*8))
			n3 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i3))*8))
			i0 = n0.left + qstep(n0.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n0.feat))))
			i1 = n1.left + qstep(n1.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n1.feat))))
			i2 = n2.left + qstep(n2.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n2.feat))))
			i3 = n3.left + qstep(n3.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n3.feat))))
			n4 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i4))*8))
			n5 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i5))*8))
			n6 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i6))*8))
			n7 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i7))*8))
			i4 = n4.left + qstep(n4.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n4.feat))))
			i5 = n5.left + qstep(n5.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n5.feat))))
			i6 = n6.left + qstep(n6.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n6.feat))))
			i7 = n7.left + qstep(n7.bin, *(*uint8)(unsafe.Add(qBase, uintptr(n7.feat))))
		}
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i0))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i1))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i2))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i3))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i4))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i5))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i6))*8))
		acc += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i7))*8))
	}
	lnodes := e.lnodes
	for ; t < nTrees; t++ {
		i := int32(t)
		for d := maxDepth; d > 0; d-- {
			nd := lnodes[i]
			i = nd.left + qstep(nd.bin, q[nd.feat])
		}
		acc += scale * e.lvalue[i]
	}
	if e.div != 0 {
		acc /= e.div
	}
	return acc
}

// PredictInto evaluates every row of X into out (len(out) >= len(X))
// with the batch kernel Compile selected (see Kernel), on the caller's
// goroutine. It reads only the ensemble's immutable state, so any number
// of calls may run at once.
func (e *Ensemble) PredictInto(X [][]float64, out []float64) {
	if e.kernel == kernelBitmask {
		e.predictIntoBitmask(X, out)
		return
	}
	e.predictIntoBanked(X, out)
}

// batchScratch is one block's bin buffer and mask accumulators, pooled
// so steady-state batch prediction does not allocate.
type batchScratch struct {
	q []uint8           // bins, laid out as the kernel's binBlock call says
	v [blockRows]uint64 // the bitmask kernel's per-row surviving leaves
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getScratch takes a pooled block scratch with room for nf features.
func getScratch(nf int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.q) < nf*blockRows {
		sc.q = make([]uint8, nf*blockRows)
	}
	sc.q = sc.q[:nf*blockRows]
	return sc
}

// binBlock bins rows into q, row r's feature f at q[r*rs+f*fs]. It runs
// feature-outer, so one feature's edge array stays hot across the whole
// block.
func (e *Ensemble) binBlock(rows [][]float64, q []uint8, rs, fs int) {
	for f, qe := range e.qedges {
		for r, x := range rows {
			q[r*rs+f*fs] = binValueBits(qe, orderedBits(x[f]))
		}
	}
}

// predictIntoBanked is the banked batch walk, for the ensembles the
// bitmask kernel does not take. It bins each row once per
// block, then walks the banked layout tree-outer, eight rows abreast
// with register-resident cursors: each tree's depth-step advances eight
// data-independent chains from its slice of bank d to its slice of bank
// d+1, so node and bin loads overlap instead of serialising on load
// latency, without spilling T×blockRows cursors to memory the way a
// fully depth-outer block walk would (measured ~30% slower — the
// single-query path, with only T cursors, does walk fully depth-outer).
// The unsafe loads elide bounds checks the compiler cannot: every index
// is proven in range at Compile time (left child indices land inside
// lnodes, feat < NumFeatures, leaves self-loop), and the parity/fuzz
// suite pins the kernel against the interpreted walk.
func (e *Ensemble) predictIntoBanked(X [][]float64, out []float64) {
	lnodes, lvalue, nf := e.lnodes, e.lvalue, e.nFeat
	nTrees := len(e.treeDepth)
	scale := e.scale
	var acc [blockRows]float64
	sc := getScratch(nf)
	q := sc.q
	for b := 0; b < len(X); b += blockRows {
		n := min(len(X)-b, blockRows)
		// Row-major bins A/B-measured ~10% faster than feature-major for
		// the walk's data-dependent reads at 60-tree ensembles.
		e.binBlock(X[b:b+n], q, nf, 1)
		for r := 0; r < n; r++ {
			acc[r] = e.init
		}
		nodeBase := unsafe.Pointer(&lnodes[0])
		valBase := unsafe.Pointer(&lvalue[0])
		qBase := unsafe.Pointer(&q[0])
		for t := 0; t < nTrees; t++ {
			root := int32(t) // bank 0: tree t's root is global index t
			depth := e.treeDepth[t]
			r := 0
			for ; r+8 <= n; r += 8 {
				o0 := (r + 0) * nf
				o1 := (r + 1) * nf
				o2 := (r + 2) * nf
				o3 := (r + 3) * nf
				o4 := (r + 4) * nf
				o5 := (r + 5) * nf
				o6 := (r + 6) * nf
				o7 := (r + 7) * nf
				i0, i1, i2, i3 := root, root, root, root
				i4, i5, i6, i7 := root, root, root, root
				for d := depth; d > 0; d-- {
					n0 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i0))*8))
					n1 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i1))*8))
					n2 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i2))*8))
					n3 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i3))*8))
					i0 = n0.left + qstep(n0.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o0+int(n0.feat)))))
					i1 = n1.left + qstep(n1.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o1+int(n1.feat)))))
					i2 = n2.left + qstep(n2.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o2+int(n2.feat)))))
					i3 = n3.left + qstep(n3.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o3+int(n3.feat)))))
					n4 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i4))*8))
					n5 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i5))*8))
					n6 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i6))*8))
					n7 := *(*qnode)(unsafe.Add(nodeBase, uintptr(uint32(i7))*8))
					i4 = n4.left + qstep(n4.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o4+int(n4.feat)))))
					i5 = n5.left + qstep(n5.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o5+int(n5.feat)))))
					i6 = n6.left + qstep(n6.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o6+int(n6.feat)))))
					i7 = n7.left + qstep(n7.bin, *(*uint8)(unsafe.Add(qBase, uintptr(o7+int(n7.feat)))))
				}
				acc[r+0] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i0))*8))
				acc[r+1] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i1))*8))
				acc[r+2] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i2))*8))
				acc[r+3] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i3))*8))
				acc[r+4] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i4))*8))
				acc[r+5] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i5))*8))
				acc[r+6] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i6))*8))
				acc[r+7] += scale * *(*float64)(unsafe.Add(valBase, uintptr(uint32(i7))*8))
			}
			for ; r < n; r++ {
				row := q[r*nf : (r+1)*nf]
				i := root
				for d := depth; d > 0; d-- {
					nd := lnodes[i]
					i = nd.left + qstep(nd.bin, row[nd.feat])
				}
				acc[r] += scale * lvalue[i]
			}
		}
		e.flush(acc[:n], out[b:b+n])
	}
	batchScratchPool.Put(sc)
}

// predictIntoBitmask is the batch kernel for ensembles whose trees have
// at most 64 leaves (buildMasks has the whole rule). Instead
// of walking a tree, it ANDs, over the features the tree splits on, the
// precomputed leaf mask for each row's bin; the lowest surviving bit is
// the exit leaf. That is exact: every leaf left of the exit leaf lies in
// the left subtree of a failed node on the exit path, and no failed
// node's left subtree holds the exit leaf. Trees go outer, so one tree's
// tables (256 bytes per split feature) stay in L1 across the 256-row
// block; inside a tree each feature streams the whole block through its
// table, bins stored feature-major so the stream reads them
// contiguously, and every row's AND is independent of its neighbours'.
// Per row the adds are the interpreter's — init, then scale*leaf per
// tree in model order — so outputs are bit-identical.
func (e *Ensemble) predictIntoBitmask(X [][]float64, out []float64) {
	var acc [blockRows]float64
	sc := getScratch(e.nFeat)
	for b := 0; b < len(X); b += blockRows {
		n := min(len(X)-b, blockRows)
		e.binBlock(X[b:b+n], sc.q, 1, blockRows)
		for r := 0; r < n; r++ {
			acc[r] = e.init
		}
		for t := range e.mtrees {
			e.addMaskTree(t, sc, acc[:n])
		}
		e.flush(acc[:n], out[b:b+n])
	}
	batchScratchPool.Put(sc)
}

// addMaskTree adds tree t's leaf value for every row of the block binned
// into sc.q. The unsafe loads elide bounds checks the compiler cannot:
// every table entry indexes the tree's own pool, and the exit leaf is
// below the tree's leaf count.
func (e *Ensemble) addMaskTree(t int, sc *batchScratch, acc []float64) {
	mt := e.mtrees[t]
	pool := unsafe.Pointer(&e.mpool[mt.pool])
	leaf := unsafe.Pointer(&e.mleaf[mt.leaf])
	scale := e.scale
	if mt.nFeat == 0 { // a lone leaf
		for r := range acc {
			acc[r] += scale * *(*float64)(leaf)
		}
		return
	}
	v := sc.v[:len(acc)]
	for k, f := range e.mfeat[mt.feat : mt.feat+mt.nFeat] {
		tab := (*[256]uint8)(e.midx[(int(mt.feat)+k)*256:])
		col := sc.q[int(f)*blockRows:][:len(v)]
		if k == 0 {
			for r, qv := range col {
				v[r] = *(*uint64)(unsafe.Add(pool, uintptr(tab[qv])*8))
			}
			continue
		}
		for r, qv := range col {
			v[r] &= *(*uint64)(unsafe.Add(pool, uintptr(tab[qv])*8))
		}
	}
	for r := range acc {
		acc[r] += scale * *(*float64)(unsafe.Add(leaf, bits.TrailingZeros64(v[r])*8))
	}
}

// flush finalises one block of accumulators into the output slice.
func (e *Ensemble) flush(acc, out []float64) {
	if e.div != 0 {
		for r := range acc {
			out[r] = acc[r] / e.div
		}
		return
	}
	copy(out, acc)
}

// PredictBatch is the allocate-and-fill convenience over PredictInto.
func (e *Ensemble) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	e.PredictInto(X, out)
	return out
}
