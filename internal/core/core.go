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
	// TrainFrac is the train split (paper: 0.7).
	TrainFrac float64
	// Seed drives splits and model seeds.
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
	if s.TrainFrac <= 0 || s.TrainFrac >= 1 {
		s.TrainFrac = 0.7
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

// Evaluate trains the given model on the feature group over d (70/30
// split) and scores it. HM and Seq2Seq have their own paths because they
// consume history/sequences rather than tabular rows.
func Evaluate(d *dataset.Dataset, g features.Group, kind ModelKind, sc Scale) Result {
	sc = sc.withDefaults()
	res := Result{Model: kind, Group: g}
	switch kind {
	case ModelHM:
		return evaluateHM(d, sc)
	case ModelSeq2Seq:
		return evaluateSeq2Seq(d, g, sc)
	case ModelLSTM:
		return evaluateLSTM(d, g, sc)
	case ModelOK:
		if g != features.GroupL {
			res.Err = kriging.ErrNotLocation
			return res
		}
	}

	m := features.Build(d, g)
	if len(m.X) == 0 {
		res.Err = fmt.Errorf("core: no usable rows for %s on this dataset", g)
		return res
	}
	trainX, trainY, testX, testY := splitMatrix(m, sc.TrainFrac, sc.Seed)

	var reg ml.Regressor
	switch kind {
	case ModelKNN:
		reg = knn.New(sc.KNN)
	case ModelRF:
		cfg := sc.RF
		cfg.Seed = sc.Seed
		reg = forest.New(cfg)
	case ModelOK:
		reg = kriging.New(sc.Kriging)
	case ModelGDBT:
		cfg := sc.GBDT
		cfg.Seed = sc.Seed
		reg = gbdt.New(cfg)
	default:
		res.Err = fmt.Errorf("core: unhandled model %v", kind)
		return res
	}
	if err := reg.Fit(trainX, trainY); err != nil {
		res.Err = err
		return res
	}
	pred := ml.PredictAll(reg, testX)
	scoreAll(&res, pred, testY)
	return res
}

// EvaluateMatrix evaluates a tabular model (KNN, RF, OK, GDBT) on a
// pre-built feature matrix with the standard 70/30 split — used by the
// factor-analysis experiments (Tables 4 and 10) whose feature sets are
// composed ad hoc rather than drawn from the named groups.
func EvaluateMatrix(m *features.Matrix, kind ModelKind, sc Scale) Result {
	sc = sc.withDefaults()
	res := Result{Model: kind}
	if len(m.X) == 0 {
		res.Err = fmt.Errorf("core: empty feature matrix")
		return res
	}
	trainX, trainY, testX, testY := splitMatrix(m, sc.TrainFrac, sc.Seed)
	var reg ml.Regressor
	switch kind {
	case ModelKNN:
		reg = knn.New(sc.KNN)
	case ModelRF:
		cfg := sc.RF
		cfg.Seed = sc.Seed
		reg = forest.New(cfg)
	case ModelOK:
		reg = kriging.New(sc.Kriging)
	case ModelGDBT:
		cfg := sc.GBDT
		cfg.Seed = sc.Seed
		reg = gbdt.New(cfg)
	default:
		res.Err = fmt.Errorf("core: EvaluateMatrix supports tabular models only, not %v", kind)
		return res
	}
	if err := reg.Fit(trainX, trainY); err != nil {
		res.Err = err
		return res
	}
	scoreAll(&res, ml.PredictAll(reg, testX), testY)
	return res
}

// SplitMatrixForTest exposes the deterministic 70/30 split for harness
// code that evaluates custom regressors.
func SplitMatrixForTest(m *features.Matrix, frac float64, seed uint64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64) {
	return splitMatrix(m, frac, seed)
}

// splitMatrix splits a feature matrix deterministically.
func splitMatrix(m *features.Matrix, frac float64, seed uint64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64) {
	n := len(m.X)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := seed
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	nTrain := int(float64(n) * frac)
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

// evaluateSeq2Seq trains the encoder–decoder on windowed sequences.
func evaluateSeq2Seq(d *dataset.Dataset, g features.Group, sc Scale) Result {
	res := Result{Model: ModelSeq2Seq, Group: g}
	set := features.BuildSequences(d, g, sc.SeqLen, 1)
	if len(set.X) == 0 {
		res.Err = fmt.Errorf("core: no usable sequences for %s", g)
		return res
	}
	train, test := set.SplitTrainTest(sc.TrainFrac, sc.Seed)
	train = train.Subsample(sc.SeqTrainCap, sc.Seed)
	testCap := sc.SeqTrainCap / 2
	if testCap < 500 {
		testCap = 500
	}
	test = test.Subsample(testCap, sc.Seed+1)

	cfg := sc.Seq2Seq
	cfg.InputDim = len(set.Names)
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
	set := features.BuildSequences(d, g, sc.SeqLen, 1)
	if len(set.X) == 0 {
		res.Err = fmt.Errorf("core: no usable sequences for %s", g)
		return res
	}
	train, test := set.SplitTrainTest(sc.TrainFrac, sc.Seed)
	train = train.Subsample(sc.SeqTrainCap, sc.Seed)
	testCap := sc.SeqTrainCap / 2
	if testCap < 500 {
		testCap = 500
	}
	test = test.Subsample(testCap, sc.Seed+1)

	cfg := sc.Seq2Seq
	cfg.InputDim = len(set.Names)
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
	cfg := sc.GBDT
	cfg.Seed = sc.Seed
	model := gbdt.New(cfg)
	if err := model.Fit(m.X, m.Y); err != nil {
		return nil, nil, err
	}
	raw, err := model.FeatureImportance()
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
