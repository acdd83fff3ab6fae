package compiled

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lumos5g/internal/ml"
)

// This file compiles fitted LSTM / Seq2Seq models (internal/ml/nn) into
// a contiguous inference kernel so the paper's most accurate model class
// (§6) can ride the same serving fast path as the tree ensembles.
//
// The kernel owns flat copies of the fused gate matrices — Wx [4H×In]
// and Wh [4H×H] per layer, gate rows ordered input/forget/candidate/
// output exactly as nn.LSTMCell packs them — in one backing slab per
// network, plus the rank-gaussian scaler reference samples and the
// target z-score. All step state lives in pooled scratch, so steady-
// state prediction allocates nothing.
//
// Parity contract (mirrors the tree kernel's): the float64 kernel
// replays nn's forward pass operation for operation — same Transform,
// same accumulation order in the gate pre-activations, same activation
// formulas, same head — so its output is bit-identical to the
// interpreted model's Predict.

// RNNLayer is one LSTM layer's flattened parameters in nn's fused
// layout: gate rows packed input, forget, candidate, output; Wx is
// [4*Hidden*In] row-major, Wh [4*Hidden*Hidden], B [4*Hidden].
type RNNLayer struct {
	In     int
	Hidden int
	Wx     []float64
	Wh     []float64
	B      []float64
}

// RNNSpec is everything needed to compile a fitted recurrent model.
// Dec nil compiles the single-shot LSTM regressor (encoder + dense head
// on the final hidden state); Dec non-nil compiles the encoder–decoder
// Seq2Seq whose decoder free-runs for OutLen steps on its own
// normalised predictions.
type RNNSpec struct {
	Enc []RNNLayer
	Dec []RNNLayer
	// WOut/BOut are the dense head on the top hidden state.
	WOut []float64
	BOut float64
	// Refs are the quantile-scaler reference samples (ml.QuantileScaler)
	// applied to every raw input step.
	Refs [][]float64
	// YMean/YStd de-normalise predictions back to Mbps.
	YMean float64
	YStd  float64
	// OutLen is the decoder horizon (ignored when Dec is nil).
	OutLen int
}

// rnnLayer views one layer's parameters inside the kernel's weight slab.
type rnnLayer struct {
	in     int
	hidden int
	wx     []float64
	wh     []float64
	b      []float64
}

// RNN is a compiled recurrent inference kernel. Safe for concurrent use.
type RNN struct {
	enc    []rnnLayer
	dec    []rnnLayer // nil => single-shot LSTM head
	wOut   []float64
	bOut   float64
	refs   [][]float64
	yMean  float64
	yStd   float64
	outLen int
	hidden int
	inDim  int
	pool   sync.Pool
}

// rnnScratch is the preallocated per-call state: normalised input step,
// per-layer hidden and cell states (flat, layer l at [l*H:(l+1)*H]),
// the 4H gate pre-activation buffer, the decoder's 1-wide input, and
// the normalised prediction horizon.
type rnnScratch struct {
	xnorm []float64
	h     []float64
	c     []float64
	gates []float64
	prevY [1]float64
	preds []float64
}

func validateRNNLayers(name string, layers []RNNLayer, inDim, hidden int) error {
	for l, lay := range layers {
		wantIn := inDim
		if l > 0 {
			wantIn = hidden
		}
		if lay.In != wantIn || lay.Hidden != hidden {
			return fmt.Errorf("compiled: %s layer %d is %d→%d, want %d→%d",
				name, l, lay.In, lay.Hidden, wantIn, hidden)
		}
		if len(lay.Wx) != 4*hidden*lay.In || len(lay.Wh) != 4*hidden*hidden || len(lay.B) != 4*hidden {
			return fmt.Errorf("compiled: %s layer %d has inconsistent parameter shapes", name, l)
		}
	}
	return nil
}

// CompileRNN flattens a fitted recurrent model into the kernel layout.
func CompileRNN(spec RNNSpec) (*RNN, error) {
	if len(spec.Enc) == 0 {
		return nil, errors.New("compiled: RNN needs at least one encoder layer")
	}
	hidden := spec.Enc[0].Hidden
	inDim := spec.Enc[0].In
	if hidden <= 0 || inDim <= 0 {
		return nil, fmt.Errorf("compiled: bad encoder dims %d→%d", inDim, hidden)
	}
	if err := validateRNNLayers("encoder", spec.Enc, inDim, hidden); err != nil {
		return nil, err
	}
	outLen := 1
	if spec.Dec != nil {
		if len(spec.Dec) != len(spec.Enc) {
			return nil, fmt.Errorf("compiled: %d decoder layers but %d encoder layers",
				len(spec.Dec), len(spec.Enc))
		}
		if err := validateRNNLayers("decoder", spec.Dec, 1, hidden); err != nil {
			return nil, err
		}
		outLen = spec.OutLen
		if outLen <= 0 {
			return nil, fmt.Errorf("compiled: decoder horizon %d", spec.OutLen)
		}
	}
	if len(spec.WOut) != hidden {
		return nil, fmt.Errorf("compiled: head has %d weights, want %d", len(spec.WOut), hidden)
	}
	if !(spec.YStd > 0) || math.IsInf(spec.YStd, 0) || math.IsNaN(spec.YMean) {
		return nil, fmt.Errorf("compiled: bad target normalisation mean=%v std=%v", spec.YMean, spec.YStd)
	}

	// One weight slab for the whole network: every layer's Wx, Wh, B
	// back to back, so inference streams one allocation.
	total := len(spec.WOut)
	for _, lay := range spec.Enc {
		total += len(lay.Wx) + len(lay.Wh) + len(lay.B)
	}
	for _, lay := range spec.Dec {
		total += len(lay.Wx) + len(lay.Wh) + len(lay.B)
	}
	slab := make([]float64, 0, total)
	place := func(src []float64) []float64 {
		start := len(slab)
		slab = append(slab, src...)
		return slab[start : start+len(src) : start+len(src)]
	}
	pack := func(layers []RNNLayer) []rnnLayer {
		out := make([]rnnLayer, len(layers))
		for l, lay := range layers {
			out[l] = rnnLayer{
				in:     lay.In,
				hidden: lay.Hidden,
				wx:     place(lay.Wx),
				wh:     place(lay.Wh),
				b:      place(lay.B),
			}
		}
		return out
	}
	k := &RNN{
		enc:    pack(spec.Enc),
		wOut:   place(spec.WOut),
		bOut:   spec.BOut,
		yMean:  spec.YMean,
		yStd:   spec.YStd,
		outLen: outLen,
		hidden: hidden,
		inDim:  inDim,
	}
	if spec.Dec != nil {
		k.dec = pack(spec.Dec)
	}
	k.refs = make([][]float64, len(spec.Refs))
	for f, r := range spec.Refs {
		k.refs[f] = append([]float64(nil), r...)
	}
	L := len(k.enc)
	k.pool.New = func() any {
		return &rnnScratch{
			xnorm: make([]float64, inDim),
			h:     make([]float64, L*hidden),
			c:     make([]float64, L*hidden),
			gates: make([]float64, 4*hidden),
			preds: make([]float64, outLen),
		}
	}
	return k, nil
}

// transform mirrors ml.QuantileScaler.Transform into scratch: features
// beyond the fitted dimensionality (or with no references) map to 0.
func transformInto(refs [][]float64, raw, out []float64) {
	for f, v := range raw {
		if f < len(refs) {
			out[f] = ml.RankGauss(refs[f], v)
		} else {
			out[f] = 0
		}
	}
}

// stepLayer advances one LSTM layer one timestep in place. It replays
// nn.LSTMCell.Step's arithmetic exactly: gate pre-activation r
// accumulates b[r], then the Wx·x terms in input order, then the Wh·h
// terms in hidden order; sigmoid/tanh activations; then the elementwise
// state update f*cPrev + i*g and o*tanh(cNew). h and c are updated in
// place — each output element reads only its own previous value, and
// the gate pass consumed all of hPrev before the overwrite.
func stepLayer(lay *rnnLayer, x, h, c, gates []float64) {
	H := lay.hidden
	in := lay.in
	for r := 0; r < 4*H; r++ {
		sum := lay.b[r]
		wxRow := lay.wx[r*in : (r+1)*in]
		for j, xv := range x {
			sum += wxRow[j] * xv
		}
		whRow := lay.wh[r*H : (r+1)*H]
		for j, hv := range h {
			sum += whRow[j] * hv
		}
		gates[r] = sum
	}
	for i := 0; i < H; i++ {
		gates[i] = sigmoid64(gates[i])         // input gate
		gates[H+i] = sigmoid64(gates[H+i])     // forget gate
		gates[2*H+i] = math.Tanh(gates[2*H+i]) // candidate
		gates[3*H+i] = sigmoid64(gates[3*H+i]) // output gate
	}
	for i := 0; i < H; i++ {
		cNew := gates[H+i]*c[i] + gates[i]*gates[2*H+i]
		c[i] = cNew
		h[i] = gates[3*H+i] * math.Tanh(cNew)
	}
}

// sigmoid64 is nn's logistic function, verbatim.
func sigmoid64(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// runEncoder consumes the raw sequence, leaving the final (h, c) stack
// in scratch. Layer l's input is layer l-1's freshly updated hidden
// state, exactly as the interpreted forward threads cache.h upward.
func (k *RNN) runEncoder(seq [][]float64, s *rnnScratch) {
	H := k.hidden
	for _, raw := range seq {
		transformInto(k.refs, raw, s.xnorm)
		x := s.xnorm
		for l := range k.enc {
			h := s.h[l*H : (l+1)*H]
			stepLayer(&k.enc[l], x, h, s.c[l*H:(l+1)*H], s.gates)
			x = h
		}
	}
}

// head applies the dense output layer to the top hidden state.
func (k *RNN) head(s *rnnScratch) float64 {
	H := k.hidden
	top := s.h[(len(k.enc)-1)*H : len(k.enc)*H]
	pred := k.bOut
	for j := 0; j < H; j++ {
		pred += k.wOut[j] * top[j]
	}
	return pred
}

// forward runs the whole compiled network in normalised space, filling
// s.preds (length OutLen).
func (k *RNN) forward(seq [][]float64, goNorm float64, s *rnnScratch) {
	for i := range s.h {
		s.h[i] = 0
		s.c[i] = 0
	}
	k.runEncoder(seq, s)
	if k.dec == nil {
		s.preds[0] = k.head(s)
		return
	}
	H := k.hidden
	prevY := goNorm
	for t := 0; t < k.outLen; t++ {
		s.prevY[0] = prevY
		x := s.prevY[:]
		for l := range k.dec {
			h := s.h[l*H : (l+1)*H]
			stepLayer(&k.dec[l], x, h, s.c[l*H:(l+1)*H], s.gates)
			x = h
		}
		pred := k.head(s)
		s.preds[t] = pred
		prevY = pred // free-running: feed own normalised prediction
	}
}

func (k *RNN) checkSeq(seq [][]float64) error {
	if len(seq) == 0 {
		return errors.New("compiled: empty input sequence")
	}
	for i, step := range seq {
		if len(step) != k.inDim {
			return fmt.Errorf("compiled: sequence step %d has dim %d, want %d", i, len(step), k.inDim)
		}
	}
	return nil
}

// PredictNext returns only the next time slot's throughput — the
// quantity Tables 7–9 score and the serving path's answer. Unlike
// Predict it writes no output slice, so steady state is zero-alloc.
func (k *RNN) PredictNext(seq [][]float64) (float64, error) {
	if err := k.checkSeq(seq); err != nil {
		return 0, err
	}
	s := k.pool.Get().(*rnnScratch)
	k.forward(seq, 0, s)
	next := s.preds[0]*k.yStd + k.yMean
	k.pool.Put(s)
	return next, nil
}
