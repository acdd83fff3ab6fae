package nn

import (
	"errors"
	"fmt"
	"math"

	"lumos5g/internal/ml"
	"lumos5g/internal/rng"
)

// Seq2SeqConfig configures the encoder–decoder model. The paper's setup is
// 2 layers × 128 hidden units, input/output sequence length 20, batch 256,
// 2000 epochs (§6.1); defaults here are scaled down for CPU-only
// reproduction and can be raised via the fields.
type Seq2SeqConfig struct {
	// InputDim is the per-timestep feature dimension (required).
	InputDim int
	// Hidden is the LSTM width. <=0 means 24.
	Hidden int
	// Layers is the LSTM stack depth. <=0 means 2.
	Layers int
	// OutLen is the decoder horizon (output sequence length). <=0 means 1.
	OutLen int
	// Epochs over the training set. <=0 means 12.
	Epochs int
	// Batch size between Adam steps. <=0 means 32.
	Batch int
	// LR is the Adam learning rate. <=0 means 3e-3.
	LR float64
	// Clip is the global gradient-norm clip. <=0 means 3.
	Clip float64
	// Seed drives initialisation and shuffling.
	Seed uint64
}

func (c Seq2SeqConfig) withDefaults() Seq2SeqConfig {
	if c.Hidden <= 0 {
		c.Hidden = 24
	}
	if c.Layers <= 0 {
		c.Layers = 2
	}
	if c.OutLen <= 0 {
		c.OutLen = 1
	}
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.LR <= 0 {
		c.LR = 3e-3
	}
	if c.Clip <= 0 {
		c.Clip = 3
	}
	return c
}

// Seq2Seq is the encoder–decoder LSTM of Fig 15: a stacked-LSTM encoder
// consumes the input feature sequence; its final (h, c) states seed a
// stacked-LSTM decoder whose scalar input at each step is the previous
// target (teacher forcing during training, its own prediction at
// inference); a dense head maps decoder hidden states to throughput.
type Seq2Seq struct {
	cfg  Seq2SeqConfig
	enc  []*LSTMCell
	dec  []*LSTMCell
	wOut *Param // [Hidden]
	bOut *Param // [1]
	// scaler applies the rank-gaussian input transform (see
	// ml.QuantileScaler): unlike a plain z-score it keeps within-cluster
	// variation resolvable when a feature is strongly multi-modal — e.g.
	// pixel coordinates over areas that sit kilometres apart in the
	// Global dataset.
	scaler  *ml.QuantileScaler
	yMean   float64
	yStd    float64
	adamT   int
	trained bool
}

// NewSeq2Seq builds an initialised (untrained) model.
func NewSeq2Seq(cfg Seq2SeqConfig) (*Seq2Seq, error) {
	cfg = cfg.withDefaults()
	if cfg.InputDim <= 0 {
		return nil, errors.New("nn: InputDim must be set")
	}
	src := rng.New(cfg.Seed).SplitLabeled("seq2seq-init")
	m := &Seq2Seq{cfg: cfg}
	for l := 0; l < cfg.Layers; l++ {
		encIn := cfg.InputDim
		decIn := 1 // previous target value
		if l > 0 {
			encIn = cfg.Hidden
			decIn = cfg.Hidden
		}
		m.enc = append(m.enc, NewLSTMCell(encIn, cfg.Hidden, src.Split()))
		m.dec = append(m.dec, NewLSTMCell(decIn, cfg.Hidden, src.Split()))
	}
	m.wOut = NewParam(cfg.Hidden)
	m.wOut.InitUniform(src, 1.0/float64(cfg.Hidden))
	m.bOut = NewParam(1)
	return m, nil
}

// params returns every learnable tensor.
func (m *Seq2Seq) params() []*Param {
	var ps []*Param
	for _, c := range m.enc {
		ps = append(ps, c.Params()...)
	}
	for _, c := range m.dec {
		ps = append(ps, c.Params()...)
	}
	return append(ps, m.wOut, m.bOut)
}

// Fit trains on sequences X (each [T][InputDim]) with target sequences Y
// (each [OutLen]). The decoder's first input is a zero GO token.
func (m *Seq2Seq) Fit(X [][][]float64, Y [][]float64) error {
	return m.FitPrimed(X, Y, nil)
}

// FitPrimed trains like Fit but primes the decoder's first input with the
// given per-sequence value (typically the last observed target — the
// standard warm-start for sequence-to-sequence forecasting). goVals may be
// nil for a zero GO token.
func (m *Seq2Seq) FitPrimed(X [][][]float64, Y [][]float64, goVals []float64) error {
	if len(X) == 0 || len(X) != len(Y) {
		return fmt.Errorf("nn: %d sequences but %d targets", len(X), len(Y))
	}
	if goVals != nil && len(goVals) != len(X) {
		return fmt.Errorf("nn: %d sequences but %d GO values", len(X), len(goVals))
	}
	for i := range X {
		if len(X[i]) == 0 {
			return fmt.Errorf("nn: empty sequence %d", i)
		}
		for _, step := range X[i] {
			if len(step) != m.cfg.InputDim {
				return fmt.Errorf("nn: sequence %d has dim %d, want %d", i, len(step), m.cfg.InputDim)
			}
		}
		if len(Y[i]) != m.cfg.OutLen {
			return fmt.Errorf("nn: target %d has len %d, want %d", i, len(Y[i]), m.cfg.OutLen)
		}
	}
	m.fitNormalization(X, Y)

	src := rng.New(m.cfg.Seed).SplitLabeled("seq2seq-train")
	n := len(X)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ps := m.params()
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		src.Shuffle(order)
		for start := 0; start < n; start += m.cfg.Batch {
			end := start + m.cfg.Batch
			if end > n {
				end = n
			}
			for _, p := range ps {
				p.ZeroGrad()
			}
			for _, idx := range order[start:end] {
				m.backwardOne(X[idx], Y[idx], goValue(goVals, idx))
			}
			// Average gradients over the minibatch.
			inv := 1.0 / float64(end-start)
			for _, p := range ps {
				for i := range p.G {
					p.G[i] *= inv
				}
			}
			ClipGrads(ps, m.cfg.Clip)
			m.adamT++
			for _, p := range ps {
				p.Adam(m.cfg.LR, m.adamT)
			}
		}
	}
	m.trained = true
	return nil
}

// fitNormalization fits the rank-gaussian input transform and the target
// z-score from training data.
func (m *Seq2Seq) fitNormalization(X [][][]float64, Y [][]float64) {
	var rows [][]float64
	total := 0
	for _, seq := range X {
		total += len(seq)
	}
	stride := total/1024 + 1
	i := 0
	for _, seq := range X {
		for _, step := range seq {
			if i%stride == 0 {
				rows = append(rows, step)
			}
			i++
		}
	}
	m.scaler = ml.FitQuantileScaler(rows)
	var ySum, yCount float64
	for _, ys := range Y {
		for _, v := range ys {
			ySum += v
			yCount++
		}
	}
	m.yMean = ySum / yCount
	var yVar float64
	for _, ys := range Y {
		for _, v := range ys {
			yVar += (v - m.yMean) * (v - m.yMean)
		}
	}
	m.yStd = math.Sqrt(yVar / yCount)
	if m.yStd < 1e-9 {
		m.yStd = 1
	}
}

func (m *Seq2Seq) normX(step []float64) []float64 {
	return m.scaler.Transform(step)
}

// forward runs encoder + decoder with teacher forcing (yTeach != nil) or
// free-running decoding (yTeach == nil), returning predictions in
// normalised space plus all caches for backprop.
type fwdState struct {
	encCaches [][]*stepCache // [layer][t]
	decCaches [][]*stepCache // [layer][t]
	decHidden [][]float64    // decoder top-layer h per output step
	preds     []float64      // normalised predictions
}

func (m *Seq2Seq) forward(seq [][]float64, yTeachNorm []float64, goNorm float64) *fwdState {
	L := m.cfg.Layers
	H := m.cfg.Hidden
	st := &fwdState{
		encCaches: make([][]*stepCache, L),
		decCaches: make([][]*stepCache, L),
	}
	// Encoder.
	hs := make([][]float64, L)
	cs := make([][]float64, L)
	for l := 0; l < L; l++ {
		hs[l] = make([]float64, H)
		cs[l] = make([]float64, H)
	}
	for _, raw := range seq {
		x := m.normX(raw)
		for l := 0; l < L; l++ {
			cache := m.enc[l].Step(x, hs[l], cs[l])
			st.encCaches[l] = append(st.encCaches[l], cache)
			hs[l], cs[l] = cache.h, cache.c
			x = cache.h
		}
	}
	// Decoder: initial states = encoder final states; the first input is
	// the GO value in normalised space (zero, or the primed last target).
	prevY := goNorm
	for t := 0; t < m.cfg.OutLen; t++ {
		x := []float64{prevY}
		for l := 0; l < L; l++ {
			cache := m.dec[l].Step(x, hs[l], cs[l])
			st.decCaches[l] = append(st.decCaches[l], cache)
			hs[l], cs[l] = cache.h, cache.c
			x = cache.h
		}
		top := hs[L-1]
		pred := m.bOut.W[0]
		for j := 0; j < H; j++ {
			pred += m.wOut.W[j] * top[j]
		}
		st.decHidden = append(st.decHidden, top)
		st.preds = append(st.preds, pred)
		if yTeachNorm != nil {
			prevY = yTeachNorm[t]
		} else {
			prevY = pred
		}
	}
	return st
}

// goValue selects the i-th GO value, or nil when unprimed.
func goValue(goVals []float64, i int) *float64 {
	if goVals == nil {
		return nil
	}
	return &goVals[i]
}

// backwardOne accumulates gradients of the MSE loss for one sequence.
func (m *Seq2Seq) backwardOne(seq [][]float64, yRaw []float64, goRaw *float64) {
	L := m.cfg.Layers
	H := m.cfg.Hidden
	yNorm := make([]float64, len(yRaw))
	for i, v := range yRaw {
		yNorm[i] = (v - m.yMean) / m.yStd
	}
	g := 0.0
	if goRaw != nil {
		g = (*goRaw - m.yMean) / m.yStd
	}
	st := m.forward(seq, yNorm, g)

	// Gradients flowing into each layer's h and c at the current step.
	dh := make([][]float64, L)
	dc := make([][]float64, L)
	for l := 0; l < L; l++ {
		dh[l] = make([]float64, H)
		dc[l] = make([]float64, H)
	}
	// Decoder BPTT (teacher forcing: no gradient through prevY inputs).
	T := m.cfg.OutLen
	for t := T - 1; t >= 0; t-- {
		// Output-head gradient: dL/dpred = 2*(pred - y)/OutLen.
		dPred := 2 * (st.preds[t] - yNorm[t]) / float64(T)
		top := st.decHidden[t]
		for j := 0; j < H; j++ {
			m.wOut.G[j] += dPred * top[j]
			dh[L-1][j] += dPred * m.wOut.W[j]
		}
		m.bOut.G[0] += dPred
		// Through decoder layers top-down.
		var dx []float64
		for l := L - 1; l >= 0; l-- {
			var dhp, dcp []float64
			dx, dhp, dcp = m.dec[l].StepBackward(st.decCaches[l][t], dh[l], dc[l])
			dh[l], dc[l] = dhp, dcp
			if l > 0 {
				for j := 0; j < H; j++ {
					dh[l-1][j] += dx[j]
				}
			}
		}
	}
	// Hand the decoder-initial-state gradients to the encoder's last step.
	Tenc := len(st.encCaches[0])
	for t := Tenc - 1; t >= 0; t-- {
		var dx []float64
		for l := L - 1; l >= 0; l-- {
			var dhp, dcp []float64
			dx, dhp, dcp = m.enc[l].StepBackward(st.encCaches[l][t], dh[l], dc[l])
			dh[l], dc[l] = dhp, dcp
			if l > 0 {
				for j := 0; j < H; j++ {
					dh[l-1][j] += dx[j]
				}
			}
		}
	}
}

// Predict returns the denormalised output sequence for one input sequence
// (zero GO token).
func (m *Seq2Seq) Predict(seq [][]float64) ([]float64, error) {
	return m.PredictPrimed(seq, nil)
}

// PredictPrimed predicts with the decoder primed by the given last
// observed target value (pass nil for the zero GO token).
func (m *Seq2Seq) PredictPrimed(seq [][]float64, goRaw *float64) ([]float64, error) {
	if !m.trained {
		return nil, errors.New("nn: model not trained")
	}
	if len(seq) == 0 {
		return nil, errors.New("nn: empty input sequence")
	}
	g := 0.0
	if goRaw != nil {
		g = (*goRaw - m.yMean) / m.yStd
	}
	st := m.forward(seq, nil, g)
	out := make([]float64, len(st.preds))
	for i, p := range st.preds {
		out[i] = p*m.yStd + m.yMean
	}
	return out, nil
}

// PredictNext returns only the first predicted step (the next time slot),
// the quantity scored in Tables 7–9.
func (m *Seq2Seq) PredictNext(seq [][]float64) (float64, error) {
	out, err := m.Predict(seq)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}
