package nn

import (
	"math"

	"lumos5g/internal/ml/compiled"
)

// Tabular adapts the sequence models to the ml.Regressor contract so
// the paper's most accurate model class can serve through Predictor /
// FallbackChain like any tree ensemble: Fit treats every feature row as
// a length-1 sequence (the serving path answers point queries, not
// windows), and all prediction runs on the compiled kernel — the
// interpreted model is kept only as the parity reference and dropped
// from the hot path.
type Tabular struct {
	cfg     Seq2SeqConfig
	seq2seq bool
	kernel  *compiled.RNN
}

// NewTabularLSTM builds an untrained single-shot LSTM tabular adapter.
func NewTabularLSTM(cfg Seq2SeqConfig) *Tabular {
	return &Tabular{cfg: cfg}
}

// NewTabularSeq2Seq builds an untrained encoder–decoder tabular
// adapter (horizon forced to 1 — the Regressor contract is scalar).
func NewTabularSeq2Seq(cfg Seq2SeqConfig) *Tabular {
	return &Tabular{cfg: cfg, seq2seq: true}
}

// Fit trains the underlying sequence model on length-1 sequences and
// compiles it. InputDim is taken from the data.
func (t *Tabular) Fit(X [][]float64, y []float64) error {
	cfg := t.cfg
	if len(X) > 0 {
		cfg.InputDim = len(X[0])
	}
	cfg.OutLen = 1
	seqs := make([][][]float64, len(X))
	for i, row := range X {
		seqs[i] = [][]float64{row}
	}
	var (
		kernel *compiled.RNN
		err    error
	)
	if t.seq2seq {
		var m *Seq2Seq
		if m, err = NewSeq2Seq(cfg); err != nil {
			return err
		}
		Y := make([][]float64, len(y))
		for i, v := range y {
			Y[i] = []float64{v}
		}
		if err = m.Fit(seqs, Y); err != nil {
			return err
		}
		kernel, err = m.Compiled()
	} else {
		var m *LSTMRegressor
		if m, err = NewLSTMRegressor(cfg); err != nil {
			return err
		}
		if err = m.Fit(seqs, y); err != nil {
			return err
		}
		kernel, err = m.Compiled()
	}
	if err != nil {
		return err
	}
	t.kernel = kernel
	return nil
}

// Predict estimates throughput for one feature row via the compiled
// kernel. Following the Regressor contract it must only be called after
// a successful Fit; an unfitted adapter returns NaN (which a
// FallbackChain treats as a demotion, not an error).
func (t *Tabular) Predict(x []float64) float64 {
	if t.kernel == nil {
		return math.NaN()
	}
	v, err := t.kernel.PredictNext([][]float64{x})
	if err != nil {
		return math.NaN()
	}
	return v
}

// PredictBatch satisfies ml.BatchRegressor: each element equals
// Predict of that row exactly (the rows are independent length-1
// sequences through the same kernel).
func (t *Tabular) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = t.Predict(row)
	}
	return out
}
