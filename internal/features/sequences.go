package features

import (
	"sort"

	"lumos5g/internal/dataset"
	"lumos5g/internal/rng"
)

// DefaultSeqLen is the paper's Seq2Seq input/output window (§6.1: "the
// input and output sequence length is set to be 20" for input; we predict
// a configurable horizon).
const DefaultSeqLen = 20

// SequenceSet is a windowed dataset for Seq2Seq training.
type SequenceSet struct {
	// X[i] is an input sequence of feature vectors, oldest first.
	X [][][]float64
	// Y[i] is the target sequence (the next OutLen throughputs).
	Y [][]float64
	// Names are the per-timestep feature column names.
	Names []string
	// RecordIdx[i] is the record index of the first *predicted* second
	// (i.e. the sample being forecast), for joining with test splits.
	RecordIdx []int
	// LastY[i] is the throughput observed at the window's final step —
	// the natural decoder priming value for connection-aware (C) groups.
	LastY []float64
}

// BuildSequences windows each trace of d into (input seqLen, output
// outLen) training pairs under the given feature group. Following the
// paper's formulation ("let X_t = {x_1, ..., x_t} be a sequence of inputs
// known a priori at time t"), the input window *ends at the first
// predicted second*: its final step carries that second's measurable
// features (location, speed, current signal state) with strictly
// exclusive throughput history, so the sequence models see exactly the
// tabular models' information set plus history. Windows never cross
// trace boundaries; records lacking required fields exclude the whole
// window. seqLen must cover at least two steps.
func BuildSequences(d *dataset.Dataset, g Group, seqLen, outLen int) *SequenceSet {
	if seqLen <= 1 {
		seqLen = DefaultSeqLen
	}
	if outLen <= 0 {
		outLen = 1
	}
	set := &SequenceSet{Names: featureNames(g)}

	byTrace := make(map[dataset.TraceKey][]int)
	for i := range d.Records {
		r := &d.Records[i]
		k := dataset.TraceKey{Area: r.Area, Trajectory: r.Trajectory, Pass: r.Pass}
		byTrace[k] = append(byTrace[k], i)
	}
	// Deterministic trace order.
	keys := make([]dataset.TraceKey, 0, len(byTrace))
	for k := range byTrace {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.Area != kb.Area {
			return ka.Area < kb.Area
		}
		if ka.Trajectory != kb.Trajectory {
			return ka.Trajectory < kb.Trajectory
		}
		return ka.Pass < kb.Pass
	})

	for _, k := range keys {
		idxs := byTrace[k]
		sort.Slice(idxs, func(a, b int) bool {
			return d.Records[idxs[a]].Second < d.Records[idxs[b]].Second
		})
		// Window steps all lie in the observed past relative to the
		// predicted second, so their C features carry each step's *own*
		// measured throughput (plus the inclusive harmonic mean) — the
		// sequence-of-history view the paper's Seq2Seq consumes.
		inclusive := inclusivePast(d, idxs)
		// Precompute usability per position. A window's final step pairs
		// the record at tpos with the history at tpos-1, both positions
		// of the window, so every step of a window of usable positions
		// is finite.
		usable := make([]bool, len(idxs))
		scratch := make([]float64, 0, len(set.Names))
		for pos, i := range idxs {
			_, usable[pos] = appendUsable(scratch, &d.Records[i], g, inclusive[pos])
		}
		// The window's last position tpos is the first predicted second.
		for start := 0; start+seqLen+outLen-1 <= len(idxs); start++ {
			tpos := start + seqLen - 1
			ok := true
			for pos := start; pos < start+seqLen; pos++ {
				if !usable[pos] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			seq := make([][]float64, seqLen)
			for t := 0; t < seqLen-1; t++ {
				i := idxs[start+t]
				seq[t] = appendFeatures(nil, &d.Records[i], g, inclusive[start+t])
			}
			// Final step: the predicted second's own features, with
			// throughput history that stops at tpos-1 (no label leakage).
			exclusive := inclusive[tpos-1]
			seq[seqLen-1] = appendFeatures(nil, &d.Records[idxs[tpos]], g, exclusive)
			ys := make([]float64, outLen)
			for t := 0; t < outLen; t++ {
				ys[t] = d.Records[idxs[tpos+t]].ThroughputMbps
			}
			set.X = append(set.X, seq)
			set.Y = append(set.Y, ys)
			set.RecordIdx = append(set.RecordIdx, idxs[tpos])
			set.LastY = append(set.LastY, d.Records[idxs[tpos-1]].ThroughputMbps)
		}
	}
	return set
}

// inclusivePast computes, for each position of a time-ordered trace, the
// step's own throughput and the harmonic mean of the PastWindow samples
// ending at (and including) that step.
func inclusivePast(d *dataset.Dataset, idxs []int) []pastInfo {
	out := make([]pastInfo, len(idxs))
	for pos, i := range idxs {
		cur := d.Records[i].ThroughputMbps
		lo := pos - PastWindow + 1
		if lo < 0 {
			lo = 0
		}
		var invSum float64
		for p := lo; p <= pos; p++ {
			v := d.Records[idxs[p]].ThroughputMbps
			if v < 0.1 {
				v = 0.1
			}
			invSum += 1 / v
		}
		out[pos] = pastInfo{
			last:  cur,
			hmean: float64(pos-lo+1) / invSum,
		}
	}
	return out
}

// SplitTrainTest splits the sequence set 70/30 by window, in the row
// order of dataset.SplitOrder.
func (s *SequenceSet) SplitTrainTest(seed uint64) (train, test *SequenceSet) {
	perm, nTrain := dataset.SplitOrder(len(s.X), seed)
	return s.pick(perm[:nTrain]), s.pick(perm[nTrain:])
}

// Subsample returns a deterministic subset of at most n windows (used to
// keep Seq2Seq training tractable in the benchmark harness).
func (s *SequenceSet) Subsample(n int, seed uint64) *SequenceSet {
	if n >= len(s.X) {
		return s
	}
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	rng.New(seed).PartialShuffle(idx, n)
	return s.pick(idx[:n])
}

// pick returns the windows at idx, in idx order.
func (s *SequenceSet) pick(idx []int) *SequenceSet {
	out := &SequenceSet{Names: s.Names}
	for _, i := range idx {
		out.X = append(out.X, s.X[i])
		out.Y = append(out.Y, s.Y[i])
		out.RecordIdx = append(out.RecordIdx, s.RecordIdx[i])
		out.LastY = append(out.LastY, s.LastY[i])
	}
	return out
}
