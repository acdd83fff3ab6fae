package compiled

// Single-sequence RNN prediction and kernel shape accessors: the parity
// tests use them to check the compiled kernels against the interpreted
// models, while serving goes through PredictNext and PredictInto.

// IsSeq2Seq reports whether the kernel carries a decoder.
func (k *RNN) IsSeq2Seq() bool { return k.dec != nil }

// InputDim returns the per-step feature dimension; OutLen the prediction
// horizon.
func (k *RNN) InputDim() int { return k.inDim }
func (k *RNN) OutLen() int   { return k.outLen }

// Predict returns the de-normalised prediction horizon (length OutLen;
// length 1 for the single-shot LSTM). Bit-identical to the interpreted
// model's Predict / PredictPrimed(nil).
func (k *RNN) Predict(seq [][]float64) ([]float64, error) {
	return k.PredictPrimed(seq, nil)
}

// PredictPrimed predicts with the decoder's first input primed by the
// last observed target (nil for the zero GO token). Priming is ignored
// by single-shot kernels, which have no decoder input.
func (k *RNN) PredictPrimed(seq [][]float64, goRaw *float64) ([]float64, error) {
	if err := k.checkSeq(seq); err != nil {
		return nil, err
	}
	g := 0.0
	if goRaw != nil {
		g = (*goRaw - k.yMean) / k.yStd
	}
	s := k.pool.Get().(*rnnScratch)
	k.forward(seq, g, s)
	out := make([]float64, k.outLen)
	for i, p := range s.preds {
		out[i] = p*k.yStd + k.yMean
	}
	k.pool.Put(s)
	return out, nil
}
