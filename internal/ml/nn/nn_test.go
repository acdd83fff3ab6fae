package nn

import (
	"math"
	"testing"

	"lumos5g/internal/rng"
)

func TestSigmoidTanh(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0)")
	}
	if sigmoid(100) < 0.999 || sigmoid(-100) > 0.001 {
		t.Fatal("sigmoid saturation")
	}
	if tanh(0) != 0 {
		t.Fatal("tanh(0)")
	}
}

func TestAdamMovesTowardMinimum(t *testing.T) {
	// Minimise (w-3)^2 with Adam.
	p := NewParam(1)
	for step := 1; step <= 2000; step++ {
		p.ZeroGrad()
		p.G[0] = 2 * (p.W[0] - 3)
		p.Adam(0.05, step)
	}
	if math.Abs(p.W[0]-3) > 0.01 {
		t.Fatalf("Adam converged to %v, want 3", p.W[0])
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam(2)
	p.G[0], p.G[1] = 3, 4 // norm 5
	ClipGrads([]*Param{p}, 1)
	norm := math.Hypot(p.G[0], p.G[1])
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("clipped norm = %v", norm)
	}
	// Below threshold: untouched.
	q := NewParam(1)
	q.G[0] = 0.5
	ClipGrads([]*Param{q}, 1)
	if q.G[0] != 0.5 {
		t.Fatal("small grads must not be scaled")
	}
}

// lossTF computes the teacher-forced normalised MSE that backwardOne
// differentiates — used by the gradient check.
func (m *Seq2Seq) lossTF(seq [][]float64, yRaw []float64) float64 {
	yNorm := make([]float64, len(yRaw))
	for i, v := range yRaw {
		yNorm[i] = (v - m.yMean) / m.yStd
	}
	st := m.forward(seq, yNorm, 0)
	var sum float64
	for t, p := range st.preds {
		d := p - yNorm[t]
		sum += d * d
	}
	return sum / float64(len(st.preds))
}

func TestSeq2SeqGradientCheck(t *testing.T) {
	cfg := Seq2SeqConfig{
		InputDim: 3, Hidden: 5, Layers: 2, OutLen: 2, Seed: 7,
	}
	m, err := NewSeq2Seq(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	seq := make([][]float64, 6)
	for i := range seq {
		seq[i] = []float64{src.Norm(), src.Norm(), src.Norm()}
	}
	y := []float64{src.Range(0, 100), src.Range(0, 100)}
	// Normalisation stats must exist before forward passes.
	m.fitNormalization([][][]float64{seq}, [][]float64{y})

	ps := m.params()
	for _, p := range ps {
		p.ZeroGrad()
	}
	m.backwardOne(seq, y, nil)

	const eps = 1e-5
	checked := 0
	for pi, p := range ps {
		// Probe a few weights per tensor.
		stride := len(p.W)/3 + 1
		for wi := 0; wi < len(p.W); wi += stride {
			orig := p.W[wi]
			p.W[wi] = orig + eps
			lp := m.lossTF(seq, y)
			p.W[wi] = orig - eps
			lm := m.lossTF(seq, y)
			p.W[wi] = orig
			num := (lp - lm) / (2 * eps)
			ana := p.G[wi]
			// Central differences of an O(1) loss resolve to ~1e-9;
			// below that, agreement is numerically meaningless.
			scale := math.Max(math.Abs(num)+math.Abs(ana), 1e-6)
			if math.Abs(num-ana)/scale > 1e-4 {
				t.Fatalf("param %d weight %d: numeric %v vs analytic %v", pi, wi, num, ana)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d weights checked", checked)
	}
}

func TestSeq2SeqLearnsLinearTrend(t *testing.T) {
	// Sequences of a noisy line; target = next value. The model must
	// beat predicting the mean by a wide margin.
	src := rng.New(2)
	var X [][][]float64
	var Y [][]float64
	for i := 0; i < 300; i++ {
		b := src.Range(0, 50)
		slope := src.Range(-2, 2)
		seq := make([][]float64, 8)
		for tt := 0; tt < 8; tt++ {
			seq[tt] = []float64{b + slope*float64(tt) + src.NormMeanStd(0, 0.3)}
		}
		X = append(X, seq)
		Y = append(Y, []float64{b + slope*8})
	}
	m, err := NewSeq2Seq(Seq2SeqConfig{
		InputDim: 1, Hidden: 12, Layers: 1, OutLen: 1,
		Epochs: 40, Batch: 16, LR: 5e-3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, Y); err != nil {
		t.Fatal(err)
	}
	mse := m.Loss(X, Y)
	// Target variance is large (b in 0..50, slope effect ±16).
	var mean, variance float64
	for _, ys := range Y {
		mean += ys[0]
	}
	mean /= float64(len(Y))
	for _, ys := range Y {
		variance += (ys[0] - mean) * (ys[0] - mean)
	}
	variance /= float64(len(Y))
	if mse > variance*0.2 {
		t.Fatalf("Seq2Seq MSE %v vs target variance %v — did not learn", mse, variance)
	}
}

func TestSeq2SeqMultiStepOutput(t *testing.T) {
	src := rng.New(4)
	var X [][][]float64
	var Y [][]float64
	for i := 0; i < 150; i++ {
		b := src.Range(0, 10)
		seq := make([][]float64, 5)
		for tt := range seq {
			seq[tt] = []float64{b}
		}
		X = append(X, seq)
		Y = append(Y, []float64{b, b, b}) // constant continuation
	}
	m, err := NewSeq2Seq(Seq2SeqConfig{
		InputDim: 1, Hidden: 8, Layers: 1, OutLen: 3,
		Epochs: 30, Batch: 16, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, Y); err != nil {
		t.Fatal(err)
	}
	out, err := m.Predict([][]float64{{7}, {7}, {7}, {7}, {7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("output len = %d", len(out))
	}
	for i, v := range out {
		if math.Abs(v-7) > 2.5 {
			t.Fatalf("step %d: predicted %v, want ~7", i, v)
		}
	}
}

func TestSeq2SeqValidation(t *testing.T) {
	if _, err := NewSeq2Seq(Seq2SeqConfig{}); err == nil {
		t.Fatal("missing InputDim should error")
	}
	m, _ := NewSeq2Seq(Seq2SeqConfig{InputDim: 2, Seed: 1})
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][][]float64{{{1, 2}}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong target length should error")
	}
	if err := m.Fit([][][]float64{{{1}}}, [][]float64{{1}}); err == nil {
		t.Fatal("wrong input dim should error")
	}
	if _, err := m.Predict([][]float64{{1, 2}}); err == nil {
		t.Fatal("predict before fit should error")
	}
}

func TestSeq2SeqDeterministic(t *testing.T) {
	mk := func() float64 {
		src := rng.New(6)
		var X [][][]float64
		var Y [][]float64
		for i := 0; i < 40; i++ {
			v := src.Range(0, 10)
			X = append(X, [][]float64{{v}, {v}})
			Y = append(Y, []float64{v})
		}
		m, err := NewSeq2Seq(Seq2SeqConfig{InputDim: 1, Hidden: 6, Layers: 1, Epochs: 5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(X, Y); err != nil {
			t.Fatal(err)
		}
		out, err := m.PredictNext([][]float64{{5}, {5}})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if mk() != mk() {
		t.Fatal("same seed must give identical training")
	}
}

// Loss computes the mean squared error over a dataset in raw units
// (useful for tracking convergence in tests).
func (m *Seq2Seq) Loss(X [][][]float64, Y [][]float64) float64 {
	var sum float64
	var n int
	for i := range X {
		st := m.forward(X[i], nil, 0)
		for t, p := range st.preds {
			d := (p*m.yStd + m.yMean) - Y[i][t]
			sum += d * d
			n++
		}
	}
	return sum / float64(n)
}
