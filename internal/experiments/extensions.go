package experiments

import (
	"fmt"
	"math"

	"lumos5g/internal/core"
	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/features"
	"lumos5g/internal/geo"
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/ml/hm"
	"lumos5g/internal/ml/nn"
	"lumos5g/internal/rng"
	"lumos5g/internal/sim"
	"lumos5g/internal/stats"
)

// Horizon studies multi-step prediction (§5.2's short-term vs long-term
// distinction): a Seq2Seq decoder unrolled over a 10-second horizon
// against the harmonic mean held constant over the same horizon. The
// paper's Seq2Seq "allows us to model an arbitrary length of the
// predicted output sequence"; this experiment quantifies how its
// advantage grows with lead time.
func Horizon(l *Lab) *Report {
	r := NewReport("horizon", "Prediction error vs horizon, Seq2Seq vs HM (§5.2 extension)")
	const outLen = 10
	d := l.Area("Airport")
	sc := l.Scale()

	set := features.BuildSequences(d, features.GroupLMC, sc.SeqLen, outLen)
	if len(set.X) == 0 {
		r.Printf("NA (no sequences)")
		return r
	}
	train, test := set.SplitTrainTest(sc.Seed)
	train = train.Subsample(sc.SeqTrainCap, sc.Seed)
	test = test.Subsample(sc.SeqTrainCap/2, sc.Seed+1)

	cfg := sc.Seq2Seq
	cfg.InputDim = len(set.Names)
	cfg.OutLen = outLen
	cfg.Seed = sc.Seed
	model, err := nn.NewSeq2Seq(cfg)
	if err != nil {
		r.Printf("NA (%v)", err)
		return r
	}
	if err := model.FitPrimed(train.X, train.Y, train.LastY); err != nil {
		r.Printf("NA (%v)", err)
		return r
	}

	hmPred := hm.New(hm.DefaultWindow)
	seqErr := make([]float64, outLen)
	hmErr := make([]float64, outLen)
	n := 0
	for i := range test.X {
		out, err := model.PredictPrimed(test.X[i], &test.LastY[i])
		if err != nil {
			continue
		}
		// HM: forecast from the window's recent throughput, held flat.
		hmVal, err := hmPred.Predict([]float64{test.LastY[i]})
		if err != nil {
			continue
		}
		for t := 0; t < outLen; t++ {
			seqErr[t] += math.Abs(out[t] - test.Y[i][t])
			hmErr[t] += math.Abs(hmVal - test.Y[i][t])
		}
		n++
	}
	if n == 0 {
		r.Printf("NA (no scored sequences)")
		return r
	}
	for t := 0; t < outLen; t++ {
		s, h := seqErr[t]/float64(n), hmErr[t]/float64(n)
		r.Printf("horizon +%2ds: Seq2Seq MAE %4.0f, flat-history MAE %4.0f (%.2fx)", t+1, s, h, h/s)
		r.Set(fmt.Sprintf("seq2seq/%d", t+1), s)
		r.Set(fmt.Sprintf("hm/%d", t+1), h)
	}
	adv1 := (hmErr[0] / float64(n)) / (seqErr[0] / float64(n))
	advK := (hmErr[outLen-1] / float64(n)) / (seqErr[outLen-1] / float64(n))
	r.Printf("Seq2Seq advantage grows from %.2fx at +1 s to %.2fx at +%d s", adv1, advK, outLen)
	r.Set("advantage/1", adv1)
	r.Set("advantage/10", advK)
	return r
}

// Temporal studies temporal generalisability (§8.1's second research
// opportunity): random-split accuracy vs training on earlier sessions and
// testing on later ones, vs testing in a *different environment
// realisation* (new construction, seasonal foliage — modelled as a fresh
// shadow field).
func Temporal(l *Lab) *Report {
	r := NewReport("temporal", "Temporal & environmental generalizability (§8.1 extension)")
	d := l.Area("Airport")
	sc := l.Scale()

	// Baseline: random 70/30 split.
	random := core.Evaluate(d, features.GroupLM, core.ModelGDBT, sc)

	// Session split: earlier passes train, later passes test.
	maxPass := 0
	for i := range d.Records {
		if p := d.Records[i].Pass; p < 100000 && p > maxPass {
			maxPass = p
		}
	}
	cut := int(float64(maxPass+1) * dataset.TrainFrac)
	train := d.Filter(func(rec *dataset.Record) bool { return rec.Pass < cut || rec.Pass >= 100000 })
	test := d.Filter(func(rec *dataset.Record) bool { return rec.Pass >= cut && rec.Pass < 100000 })
	sessionMAE := trainEvalGDBT(train, test, features.GroupLM, sc)

	// Environment split: a re-simulated campaign with a different shadow
	// realisation (the same corridor after refurbishment).
	cfg := l.opt.Campaign()
	cfg.Seed += 1000
	other := sim.RunArea(env.Airport(), cfg)
	otherClean, _ := other.QualityFilter()
	envMAE := trainEvalGDBT(d, otherClean, features.GroupLM, sc)

	r.Printf("random 70/30 split       : MAE %4.0f", random.MAE)
	r.Printf("later-sessions held out  : MAE %4.0f (stationary environment transfers)", sessionMAE)
	r.Printf("new environment realization: MAE %4.0f (L+M models memorise the environment)", envMAE)
	r.Set("randomMAE", random.MAE)
	r.Set("sessionMAE", sessionMAE)
	r.Set("envMAE", envMAE)
	if random.MAE > 0 {
		r.Set("envDegradation", envMAE/random.MAE)
		r.Printf("environmental change degrades error %.2fx — the maps must be re-learned (§8.1)", envMAE/random.MAE)
	}
	return r
}

// crossPredict fits GDBT under g on one dataset and predicts every row
// of another; pred is nil when either side has no rows or the fit fails.
func crossPredict(train, test *dataset.Dataset, g features.Group, sc core.Scale) (pred, truth []float64) {
	mTrain := features.Build(train, g)
	mTest := features.Build(test, g)
	if len(mTrain.X) == 0 || len(mTest.X) == 0 {
		return nil, nil
	}
	model, err := core.NewRegressor(core.ModelGDBT, sc)
	if err != nil {
		return nil, nil
	}
	if err := model.Fit(mTrain.X, mTrain.Y); err != nil {
		return nil, nil
	}
	return ml.PredictAll(model, mTest.X), mTest.Y
}

// trainEvalGDBT fits GDBT on one dataset and scores MAE on another.
func trainEvalGDBT(train, test *dataset.Dataset, g features.Group, sc core.Scale) float64 {
	pred, truth := crossPredict(train, test, g, sc)
	if pred == nil {
		return math.NaN()
	}
	return stats.MAE(pred, truth)
}

// Sensitivity studies robustness to input-feature inaccuracy (§8.1's
// third research opportunity): the L+M model is trained on clean features
// and queried with increasingly degraded GPS fixes.
func Sensitivity(l *Lab) *Report {
	r := NewReport("sensitivity", "Model sensitivity to GPS inaccuracy (§8.1 extension)")
	d := l.Area("Airport")
	sc := l.Scale()
	a := env.Airport()

	m := features.Build(d, features.GroupLM)
	trainX, trainY, _, _ := core.SplitMatrix(m, sc.Seed)
	model, err := core.NewRegressor(core.ModelGDBT, sc)
	if err != nil {
		r.Printf("NA (%v)", err)
		return r
	}
	if err := model.Fit(trainX, trainY); err != nil {
		r.Printf("NA (%v)", err)
		return r
	}

	for _, sigma := range []float64{0, 5, 15, 30} {
		noisy := perturbGPS(d, a, sigma, sc.Seed+uint64(sigma))
		mt := features.Build(noisy, features.GroupLM)
		_, _, testX, testY := core.SplitMatrix(mt, sc.Seed)
		mae := stats.MAE(ml.PredictAll(model, testX), testY)
		r.Printf("GPS noise σ=%2.0f m: MAE %4.0f", sigma, mae)
		r.Set(fmt.Sprintf("mae/%.0f", sigma), mae)
	}
	m0, _ := r.Get("mae/0")
	m30, _ := r.Get("mae/30")
	if m0 > 0 {
		r.Printf("30 m GPS error inflates MAE %.2fx — input accuracy matters (§8.1)", m30/m0)
		r.Set("degradation30", m30/m0)
	}
	return r
}

// perturbGPS re-derives pixel coordinates after adding σ meters of
// position noise.
func perturbGPS(d *dataset.Dataset, a *env.Area, sigma float64, seed uint64) *dataset.Dataset {
	if sigma == 0 {
		return d
	}
	src := rng.New(seed).SplitLabeled("gps-perturb")
	out := &dataset.Dataset{Records: append([]dataset.Record(nil), d.Records...)}
	for i := range out.Records {
		rec := &out.Records[i]
		pos := a.Frame.ToPoint(geo.LatLon{Lat: rec.Latitude, Lon: rec.Longitude})
		pos.X += src.NormMeanStd(0, sigma)
		pos.Y += src.NormMeanStd(0, sigma)
		ll := a.Frame.ToLatLon(pos)
		rec.Latitude, rec.Longitude = ll.Lat, ll.Lon
		px := geo.Pixelize(ll, geo.DefaultZoom)
		rec.PixelX, rec.PixelY = px.X, px.Y
	}
	return out
}

// Carrier implements the paper's §A.1.4 suggestion: carriers know how
// many subscribers a panel is serving; adding that count as a feature
// should recover the congestion-induced error that UE-side features
// cannot explain.
func Carrier(l *Lab) *Report {
	r := NewReport("carrier", "Carrier-assisted prediction with panel load (§A.1.4 extension)")
	d := l.Area("Airport")
	sc := l.Scale()

	base := features.Build(d, features.GroupTMC)
	if len(base.X) == 0 {
		r.Printf("NA (no T features)")
		return r
	}
	baseRes := core.EvaluateMatrix(base, core.ModelGDBT, sc)

	// Augment with the carrier-side sharing count.
	aug := &features.Matrix{
		Names:     append(append([]string{}, base.Names...), "panel_load"),
		Y:         base.Y,
		RecordIdx: base.RecordIdx,
	}
	for i, row := range base.X {
		rec := &d.Records[base.RecordIdx[i]]
		aug.X = append(aug.X, append(append([]float64{}, row...), float64(rec.SharingUEs)))
	}
	augRes := core.EvaluateMatrix(aug, core.ModelGDBT, sc)

	r.Printf("UE-side T+M+C            : MAE %4.0f  F1 %.2f", baseRes.MAE, baseRes.WeightedF1)
	r.Printf("T+M+C + carrier panel load: MAE %4.0f  F1 %.2f", augRes.MAE, augRes.WeightedF1)
	r.Set("baseMAE", baseRes.MAE)
	r.Set("carrierMAE", augRes.MAE)
	if augRes.MAE > 0 {
		r.Printf("carrier knowledge cuts MAE %.2fx — the user-carrier collaboration of §8.2", baseRes.MAE/augRes.MAE)
		r.Set("gain", baseRes.MAE/augRes.MAE)
	}
	return r
}

// NativeClassifier compares the framework's default classification route
// (regression + thresholding, §6.1) against the native softmax GDBT
// classifier on the same split.
func NativeClassifier(l *Lab) *Report {
	r := NewReport("classifier", "Regression-threshold vs native softmax GDBT classification")
	d := l.Area("Airport")
	sc := l.Scale()

	m := features.Build(d, features.GroupLMC)
	trainX, trainY, testX, testY := core.SplitMatrix(m, sc.Seed)

	// Route 1: regression + threshold.
	regRes := core.EvaluateMatrix(m, core.ModelGDBT, sc)

	// Route 2: native classifier on class labels.
	cfg := sc.GBDT
	cfg.Seed = sc.Seed
	// One tree per class per round: divide rounds to match compute.
	cfg.Estimators = cfg.Estimators / ml.NumClasses
	if cfg.Estimators < 10 {
		cfg.Estimators = 10
	}
	clf := gbdt.NewClassifier(cfg, ml.NumClasses)
	if err := clf.FitLabels(trainX, ml.ClassesOf(trainY)); err != nil {
		r.Printf("NA (%v)", err)
		return r
	}
	pred := make([]int, len(testX))
	for i, x := range testX {
		pred[i] = clf.Predict(x)
	}
	cm := stats.NewConfusionMatrix(ml.NumClasses, pred, ml.ClassesOf(testY))

	r.Printf("regression + threshold : F1 %.3f recall(low) %.3f", regRes.WeightedF1, regRes.RecallLow)
	r.Printf("native softmax GDBT    : F1 %.3f recall(low) %.3f", cm.WeightedF1(), cm.Recall(int(ml.ClassLow)))
	r.Set("thresholdF1", regRes.WeightedF1)
	r.Set("nativeF1", cm.WeightedF1())
	return r
}

// CrossArea extends the §6.2 transferability analysis across areas:
// tower-based (T) features are location-agnostic, so a T+M model trained
// on the outdoor Intersection is applied to the indoor Airport and vice
// versa, compared against each area's in-domain model and its
// location-based (L+M) counterpart — which cannot transfer at all, since
// pixel coordinates are absolute.
func CrossArea(l *Lab) *Report {
	r := NewReport("crossarea", "Cross-area transferability of T+M vs L+M models (§6.2/§7 extension)")
	sc := l.Scale()
	inter := l.Area("Intersection")
	air := l.Area("Airport")

	pairs := []struct {
		name        string
		train, test *dataset.Dataset
	}{
		{"Intersection->Airport", inter, air},
		{"Airport->Intersection", air, inter},
	}
	for _, p := range pairs {
		tm := crossEvalF1(p.train, p.test, features.GroupTM, sc)
		lm := crossEvalF1(p.train, p.test, features.GroupLM, sc)
		inDomain := l.Eval(p.test.Records[0].Area, features.GroupTM, core.ModelGDBT).WeightedF1
		r.Printf("%s: T+M transfer F1 %.2f, L+M transfer F1 %.2f, in-domain T+M F1 %.2f",
			p.name, tm, lm, inDomain)
		r.Set(p.name+"/TM", tm)
		r.Set(p.name+"/LM", lm)
		r.Set(p.name+"/inDomain", inDomain)
	}
	r.Printf("location-agnostic T features carry across areas; absolute L features do not (§7)")
	return r
}

// crossEvalF1 trains GDBT on one area and scores w-avgF1 on another.
func crossEvalF1(train, test *dataset.Dataset, g features.Group, sc core.Scale) float64 {
	pred, truth := crossPredict(train, test, g, sc)
	if pred == nil {
		return math.NaN()
	}
	return stats.NewConfusionMatrix(ml.NumClasses, ml.ClassesOf(pred), ml.ClassesOf(truth)).WeightedF1()
}

// LSTMBaseline compares the paper's Seq2Seq choice against the standard
// single-shot LSTM of the related work ([45], §5.2's explicit contrast:
// "Unlike the standard LSTM models, Seq2Seq allows us to model an
// arbitrary length of the predicted output sequence").
func LSTMBaseline(l *Lab) *Report {
	r := NewReport("lstm", "Seq2Seq vs standard single-shot LSTM ([45] baseline)")
	d := l.Area("Airport")
	for _, g := range []features.Group{features.GroupLM, features.GroupLMC} {
		seq := l.Eval("Airport", g, core.ModelSeq2Seq)
		lstm := core.Evaluate(d, g, core.ModelLSTM, l.Scale())
		if seq.Err != nil || lstm.Err != nil {
			r.Printf("%s: NA", g)
			continue
		}
		r.Printf("%-6s: Seq2Seq MAE %4.0f F1 %.2f | plain LSTM MAE %4.0f F1 %.2f",
			g, seq.MAE, seq.WeightedF1, lstm.MAE, lstm.WeightedF1)
		r.Set(g.String()+"/seq2seqMAE", seq.MAE)
		r.Set(g.String()+"/lstmMAE", lstm.MAE)
	}
	r.Printf("at the next-slot horizon the two are close; the decoder's value is")
	r.Printf("multi-step prediction (see the 'horizon' experiment), which the")
	r.Printf("single-shot LSTM cannot express at all")
	return r
}
