// Package core is the Lumos5G framework itself (§5): it composes feature
// groups with ML models, runs the train/evaluate pipeline behind Tables
// 7–9, builds 5G throughput maps (Figs 3c, 6, 9), runs the §6.2
// transferability analysis, and reports GDBT feature importance (Fig 22).
package core

import (
	"fmt"
	"math"

	"lumos5g/internal/dataset"
	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/forest"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/ml/hm"
	"lumos5g/internal/ml/knn"
	"lumos5g/internal/ml/kriging"
	"lumos5g/internal/ml/nn"
	"lumos5g/internal/stats"
)

// ModelKind selects one of the evaluated predictors.
type ModelKind int

const (
	// ModelKNN is the k-nearest-neighbour baseline.
	ModelKNN ModelKind = iota
	// ModelRF is the random-forest baseline [20].
	ModelRF
	// ModelOK is Ordinary Kriging [26] (L feature group only).
	ModelOK
	// ModelHM is the history-based harmonic mean [38, 64].
	ModelHM
	// ModelGDBT is Lumos5G's gradient boosted decision trees.
	ModelGDBT
	// ModelSeq2Seq is Lumos5G's LSTM encoder–decoder.
	ModelSeq2Seq
	// ModelLSTM is the standard single-shot LSTM baseline ([45], Mei et
	// al.): no decoder, immediate-next-slot prediction only.
	ModelLSTM
)

func (m ModelKind) String() string {
	switch m {
	case ModelKNN:
		return "KNN"
	case ModelRF:
		return "RF"
	case ModelOK:
		return "OK"
	case ModelHM:
		return "HM"
	case ModelGDBT:
		return "GDBT"
	case ModelSeq2Seq:
		return "Seq2Seq"
	case ModelLSTM:
		return "LSTM"
	}
	return "?"
}

// Scale bundles the tunable hyper-parameters so the harness can trade
// fidelity for runtime. The zero value selects sensible scaled-down
// defaults (see EXPERIMENTS.md for the mapping to the paper's settings).
type Scale struct {
	GBDT    gbdt.Config
	RF      forest.Config
	KNN     knn.Config
	Kriging kriging.Config
	Seq2Seq nn.Seq2SeqConfig
	// SeqLen is the Seq2Seq input window (paper: 20).
	SeqLen int
	// SeqTrainCap caps Seq2Seq training windows for tractability;
	// <=0 means 4000.
	SeqTrainCap int
	// Seed drives splits and model seeds. The evaluation entry points
	// (Evaluate, EvaluateMatrix, FeatureImportance, Transferability)
	// read 0 as 1; NewRegressor, and so Train, seeds with it as given.
	Seed uint64
	// Workers bounds how many tiers the chain trainers
	// (lumos5g.TrainFallbackChain, TrainCalibratedFallbackChain) train
	// at once; <=0 means one per CPU, and 1 trains them one after
	// another. Each fit runs on its tier's goroutine, and the chain
	// saves to the same bytes for every count.
	Workers int
}

func (s Scale) withDefaults() Scale {
	if s.SeqLen <= 0 {
		s.SeqLen = features.DefaultSeqLen
	}
	if s.SeqTrainCap <= 0 {
		s.SeqTrainCap = 4000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Result holds one model × feature-group evaluation.
type Result struct {
	Model ModelKind
	Group features.Group
	// Regression metrics (Table 8 / Table 9 top).
	MAE  float64
	RMSE float64
	// Classification metrics (Table 7 / Table 9 bottom).
	WeightedF1 float64
	RecallLow  float64
	// NTest is the number of scored test samples.
	NTest int
	// Err is non-nil when the combination is not applicable (e.g. OK on
	// non-L groups — the paper's "NA" cells).
	Err error
}

func (r Result) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%s/%s: NA (%v)", r.Model, r.Group, r.Err)
	}
	return fmt.Sprintf("%s/%s: MAE=%.0f RMSE=%.0f F1=%.2f recall(low)=%.2f",
		r.Model, r.Group, r.MAE, r.RMSE, r.WeightedF1, r.RecallLow)
}

// scoreAll fills a Result's metrics from aligned predictions and truths.
func scoreAll(res *Result, pred, truth []float64) {
	res.MAE = stats.MAE(pred, truth)
	res.RMSE = stats.RMSE(pred, truth)
	cm := stats.NewConfusionMatrix(ml.NumClasses, ml.ClassesOf(pred), ml.ClassesOf(truth))
	res.WeightedF1 = cm.WeightedF1()
	res.RecallLow = cm.Recall(int(ml.ClassLow))
	res.NTest = len(truth)
}

// NewRegressor returns the unfitted model family kind configured from
// sc: KNN, RF, OK, GDBT, or the LSTM and Seq2Seq tabular adapters
// (length-1 sequences of the same features). It seeds the model with
// sc.Seed exactly as given and applies no defaults, so the model
// Evaluate scores and the model Train serves are built here alike. HM
// has no tabular form and is an error.
func NewRegressor(kind ModelKind, sc Scale) (ml.Regressor, error) {
	switch kind {
	case ModelKNN:
		return knn.New(sc.KNN), nil
	case ModelRF:
		cfg := sc.RF
		cfg.Seed = sc.Seed
		return forest.New(cfg), nil
	case ModelOK:
		return kriging.New(sc.Kriging), nil
	case ModelGDBT:
		cfg := sc.GBDT
		cfg.Seed = sc.Seed
		return gbdt.New(cfg), nil
	case ModelLSTM:
		cfg := sc.Seq2Seq
		cfg.Seed = sc.Seed
		return nn.NewTabularLSTM(cfg), nil
	case ModelSeq2Seq:
		cfg := sc.Seq2Seq
		cfg.Seed = sc.Seed
		return nn.NewTabularSeq2Seq(cfg), nil
	}
	return nil, fmt.Errorf("core: no tabular model for %s (KNN, RF, OK, GDBT, LSTM and Seq2Seq have one)", kind)
}

// Evaluate trains the given model on the feature group over d (70/30
// split) and scores it. HM, Seq2Seq and LSTM have their own paths
// because they consume history/sequences rather than tabular rows; the
// tabular models go through EvaluateMatrix.
func Evaluate(d *dataset.Dataset, g features.Group, kind ModelKind, sc Scale) Result {
	sc = sc.withDefaults()
	switch kind {
	case ModelHM:
		return evaluateHM(d, sc)
	case ModelSeq2Seq:
		return evaluateSeq2Seq(d, g, sc)
	case ModelLSTM:
		return evaluateLSTM(d, g, sc)
	case ModelOK:
		if g != features.GroupL {
			return Result{Model: kind, Group: g, Err: kriging.ErrNotLocation}
		}
	}
	m := features.Build(d, g)
	if len(m.X) == 0 {
		return Result{Model: kind, Group: g, Err: fmt.Errorf("core: no usable rows for %s on this dataset", g)}
	}
	res := EvaluateMatrix(m, kind, sc)
	res.Group = g
	return res
}

// EvaluateMatrix evaluates a tabular model (KNN, RF, OK, GDBT) on a
// feature matrix with the standard 70/30 split (SplitMatrix). Evaluate
// runs it on a named group's matrix; the factor-analysis experiments
// (Tables 4 and 10) run it on feature sets composed ad hoc. HM, Seq2Seq
// and LSTM are refused: the paper evaluates them on sequences.
func EvaluateMatrix(m *features.Matrix, kind ModelKind, sc Scale) Result {
	sc = sc.withDefaults()
	res := Result{Model: kind}
	switch {
	case len(m.X) == 0:
		res.Err = fmt.Errorf("core: empty feature matrix")
		return res
	case kind != ModelKNN && kind != ModelRF && kind != ModelOK && kind != ModelGDBT:
		res.Err = fmt.Errorf("core: EvaluateMatrix supports tabular models only, not %v", kind)
		return res
	}
	trainX, trainY, testX, testY := SplitMatrix(m, sc.Seed)
	reg, err := NewRegressor(kind, sc)
	if err != nil {
		res.Err = err
		return res
	}
	if err := reg.Fit(trainX, trainY); err != nil {
		res.Err = err
		return res
	}
	scoreAll(&res, ml.PredictAll(reg, testX), testY)
	return res
}

// SplitMatrix splits a feature matrix 70/30 by dataset.SplitOrder: the
// split Evaluate scores on and TrainCalibrated calibrates on.
func SplitMatrix(m *features.Matrix, seed uint64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64) {
	perm, nTrain := dataset.SplitOrder(len(m.X), seed)
	for i, idx := range perm {
		if i < nTrain {
			trainX = append(trainX, m.X[idx])
			trainY = append(trainY, m.Y[idx])
		} else {
			testX = append(testX, m.X[idx])
			testY = append(testY, m.Y[idx])
		}
	}
	return
}

// evaluateHM scores the harmonic-mean forecaster over every trace
// (one-step-ahead, no training needed). Its "feature group" is past
// throughput only, as in Table 9's dedicated row.
func evaluateHM(d *dataset.Dataset, sc Scale) Result {
	res := Result{Model: ModelHM, Group: features.GroupC}
	p := hm.New(hm.DefaultWindow)
	var pred, truth []float64
	for _, trace := range d.GroupByTrace() {
		pp, tt := p.PredictSeries(trace, 1)
		pred = append(pred, pp...)
		truth = append(truth, tt...)
	}
	if len(pred) == 0 {
		res.Err = fmt.Errorf("core: no traces for HM")
		return res
	}
	scoreAll(&res, pred, truth)
	return res
}

// sequenceSplit windows d under g (next-slot targets) and returns the
// 70/30 split of the windows, the train side capped at SeqTrainCap and
// the test side at half that (at least 500): the sequences Seq2Seq and
// the LSTM baseline both train and score on.
func sequenceSplit(d *dataset.Dataset, g features.Group, sc Scale) (train, test *features.SequenceSet, err error) {
	set := features.BuildSequences(d, g, sc.SeqLen, 1)
	if len(set.X) == 0 {
		return nil, nil, fmt.Errorf("core: no usable sequences for %s", g)
	}
	train, test = set.SplitTrainTest(sc.Seed)
	return train.Subsample(sc.SeqTrainCap, sc.Seed), test.Subsample(max(sc.SeqTrainCap/2, 500), sc.Seed+1), nil
}

// evaluateSeq2Seq trains the encoder–decoder on windowed sequences.
func evaluateSeq2Seq(d *dataset.Dataset, g features.Group, sc Scale) Result {
	res := Result{Model: ModelSeq2Seq, Group: g}
	train, test, err := sequenceSplit(d, g, sc)
	if err != nil {
		res.Err = err
		return res
	}
	cfg := sc.Seq2Seq
	cfg.InputDim = len(train.Names)
	cfg.OutLen = 1
	cfg.Seed = sc.Seed
	model, err := nn.NewSeq2Seq(cfg)
	if err != nil {
		res.Err = err
		return res
	}
	// Connection-aware groups prime the decoder with the last observed
	// throughput (it is part of their feature contract); other groups
	// must not see throughput history.
	var goTrain []float64
	if g.UsesConnection() {
		goTrain = train.LastY
	}
	if err := model.FitPrimed(train.X, train.Y, goTrain); err != nil {
		res.Err = err
		return res
	}
	pred := make([]float64, len(test.X))
	truth := make([]float64, len(test.X))
	for i := range test.X {
		var goVal *float64
		if g.UsesConnection() {
			goVal = &test.LastY[i]
		}
		out, err := model.PredictPrimed(test.X[i], goVal)
		if err != nil {
			res.Err = err
			return res
		}
		pred[i] = out[0]
		truth[i] = test.Y[i][0]
	}
	scoreAll(&res, pred, truth)
	return res
}

// evaluateLSTM trains the single-shot LSTM baseline on the same windowed
// sequences as Seq2Seq (next-slot targets only).
func evaluateLSTM(d *dataset.Dataset, g features.Group, sc Scale) Result {
	res := Result{Model: ModelLSTM, Group: g}
	train, test, err := sequenceSplit(d, g, sc)
	if err != nil {
		res.Err = err
		return res
	}
	cfg := sc.Seq2Seq
	cfg.InputDim = len(train.Names)
	cfg.Seed = sc.Seed
	model, err := nn.NewLSTMRegressor(cfg)
	if err != nil {
		res.Err = err
		return res
	}
	yTrain := make([]float64, len(train.Y))
	for i := range train.Y {
		yTrain[i] = train.Y[i][0]
	}
	if err := model.Fit(train.X, yTrain); err != nil {
		res.Err = err
		return res
	}
	pred := make([]float64, len(test.X))
	truth := make([]float64, len(test.X))
	for i := range test.X {
		v, err := model.Predict(test.X[i])
		if err != nil {
			res.Err = err
			return res
		}
		pred[i] = v
		truth[i] = test.Y[i][0]
	}
	scoreAll(&res, pred, truth)
	return res
}

// GlobalDataset builds the paper's Global dataset: all areas with known
// 5G panel locations (Intersection + Airport).
func GlobalDataset(byArea map[string]*dataset.Dataset) *dataset.Dataset {
	out := &dataset.Dataset{}
	for _, name := range []string{"Intersection", "Airport"} {
		if d, ok := byArea[name]; ok {
			out.Records = append(out.Records, d.Records...)
		}
	}
	return out
}

// FeatureImportance trains a GDBT on the group and returns logical
// feature importances: sin/cos pairs are merged back into one entry per
// underlying feature, matching Fig 22's presentation.
func FeatureImportance(d *dataset.Dataset, g features.Group, sc Scale) (names []string, importance []float64, err error) {
	sc = sc.withDefaults()
	m := features.Build(d, g)
	if len(m.X) == 0 {
		return nil, nil, fmt.Errorf("core: no usable rows for %s", g)
	}
	model, err := NewRegressor(ModelGDBT, sc)
	if err != nil {
		return nil, nil, err
	}
	if err := model.Fit(m.X, m.Y); err != nil {
		return nil, nil, err
	}
	raw, err := model.(*gbdt.Model).FeatureImportance()
	if err != nil {
		return nil, nil, err
	}
	// Merge *_sin / *_cos columns.
	order := []string{}
	agg := map[string]float64{}
	for j, n := range m.Names {
		logical := n
		if cut, ok := trimSuffix(n, "_sin"); ok {
			logical = cut
		} else if cut, ok := trimSuffix(n, "_cos"); ok {
			logical = cut
		}
		if _, seen := agg[logical]; !seen {
			order = append(order, logical)
		}
		agg[logical] += raw[j]
	}
	importance = make([]float64, len(order))
	for i, n := range order {
		importance[i] = agg[n]
	}
	// Guard against drift: importances still sum to ~1.
	var sum float64
	for _, v := range importance {
		sum += v
	}
	if sum > 0 && math.Abs(sum-1) > 1e-6 {
		for i := range importance {
			importance[i] /= sum
		}
	}
	return order, importance, nil
}

func trimSuffix(s, suffix string) (string, bool) {
	if len(s) > len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)], true
	}
	return s, false
}
