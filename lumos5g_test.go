package lumos5g

import (
	"bytes"
	"math"
	"testing"

	"lumos5g/internal/features"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/ml/nn"
)

func tinyCampaign() CampaignConfig {
	return CampaignConfig{Seed: 1, WalkPasses: 2, DrivePasses: 1, StationarySessions: 1, BackgroundUEProb: 0.1}
}

func testScale() Scale {
	return Scale{GBDT: gbdt.Config{Estimators: 40, MaxDepth: 5}, Seed: 1}
}

func TestEndToEndPublicAPI(t *testing.T) {
	a, err := AreaByName("Airport")
	if err != nil {
		t.Fatal(err)
	}
	raw := GenerateArea(a, tinyCampaign())
	clean, dropped := CleanDataset(raw)
	if clean.Len() == 0 || dropped == 0 {
		t.Fatalf("clean=%d dropped=%d", clean.Len(), dropped)
	}

	res := Evaluate(clean, GroupLM, ModelGDBT, testScale())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.WeightedF1 <= 0.5 {
		t.Fatalf("GDBT L+M F1 = %v, too weak", res.WeightedF1)
	}

	tm := BuildThroughputMap(clean, 2)
	if len(tm.Cells) == 0 {
		t.Fatal("empty throughput map")
	}
}

func TestCSVRoundTripPublic(t *testing.T) {
	a, _ := AreaByName("Airport")
	d := GenerateArea(a, tinyCampaign())
	var buf bytes.Buffer
	if err := WriteCSV(d, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip %d != %d", back.Len(), d.Len())
	}
}

func TestParseHelpers(t *testing.T) {
	g, err := ParseFeatureGroup("t+m+c")
	if err != nil || g != GroupTMC {
		t.Fatal("ParseFeatureGroup")
	}
	m, err := ParseModel("gdbt")
	if err != nil || m != ModelGDBT {
		t.Fatal("ParseModel")
	}
	if _, err := ParseModel("alexnet"); err == nil {
		t.Fatal("unknown model should error")
	}
	for _, name := range []string{"KNN", "RF", "OK", "HM", "Seq2Seq"} {
		if _, err := ParseModel(name); err != nil {
			t.Fatalf("ParseModel(%s): %v", name, err)
		}
	}
}

func TestClassOfPublic(t *testing.T) {
	if ClassOf(100) != ClassLow || ClassOf(500) != ClassMedium || ClassOf(900) != ClassHigh {
		t.Fatal("ClassOf thresholds")
	}
}

func TestAreas(t *testing.T) {
	as := Areas()
	if len(as) != 3 {
		t.Fatalf("areas = %d", len(as))
	}
	if _, err := AreaByName("Nowhere"); err == nil {
		t.Fatal("unknown area should error")
	}
}

func TestCampaignConfigs(t *testing.T) {
	if DefaultCampaign().WalkPasses != 30 {
		t.Fatal("default should match the paper's >=30 passes")
	}
	if SmallCampaign().WalkPasses >= DefaultCampaign().WalkPasses {
		t.Fatal("small campaign should be smaller")
	}
}

func TestTrainPredictor(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	p, err := Train(d, GroupLM, ModelGDBT, testScale())
	if err != nil {
		t.Fatal(err)
	}
	if p.Group() != GroupLM || p.Model() != ModelGDBT {
		t.Fatal("predictor metadata")
	}
	names := p.FeatureNames()
	if len(names) != 5 {
		t.Fatalf("L+M should have 5 features, got %v", names)
	}
	pred, idx := p.PredictDataset(d)
	if len(pred) != len(idx) || len(pred) == 0 {
		t.Fatal("PredictDataset shape")
	}
	// In-sample predictions should correlate strongly with truth.
	var mae float64
	for i := range pred {
		mae += math.Abs(pred[i] - d.Records[idx[i]].ThroughputMbps)
	}
	mae /= float64(len(pred))
	if mae > 300 {
		t.Fatalf("in-sample MAE = %v", mae)
	}
	// Single-vector prediction must be finite and non-negative-ish.
	v := p.Predict(make([]float64, len(names)))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("Predict = %v", v)
	}
	if c := p.PredictClass(make([]float64, len(names))); c < ClassLow || c > ClassHigh {
		t.Fatal("PredictClass out of range")
	}
}

// TestPredictorOneRowMatchesInterpreted pins the one-row methods, served
// by the compiled walker, bit for bit to the interpreted ensemble on
// every dataset row and on rows carrying ±Inf or NaN of either sign.
func TestPredictorOneRowMatchesInterpreted(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1)}
	for _, m := range []Model{ModelGDBT, ModelRF} {
		p, err := Train(d, GroupLM, m, testScale())
		if err != nil {
			t.Fatal(err)
		}
		if cm, ok := p.reg.(compiledModel); !ok || cm.Compiled() == nil {
			t.Fatalf("%s: no compiled ensemble to serve one row", m)
		}
		rows := features.Build(d, GroupLM).X
		for i, x := range rows[:200] {
			y := append([]float64(nil), x...)
			y[i%len(y)] = odd[i%len(odd)]
			rows = append(rows, y)
		}
		for i, x := range rows {
			want := p.reg.Predict(x)
			if got := p.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s row %d %v: Predict %v != interpreted %v", m, i, x, got, want)
			}
			if got := p.PredictInterval(x).P50; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s row %d %v: PredictInterval p50 %v != interpreted %v", m, i, x, got, want)
			}
			if got := p.PredictClass(x); got != ClassOf(want) {
				t.Fatalf("%s row %d %v: PredictClass %v != %v", m, i, x, got, ClassOf(want))
			}
		}
	}
}

func TestTrainRejectsHM(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	if _, err := Train(d, GroupTM, ModelHM, testScale()); err == nil {
		t.Fatal("Train should reject HM")
	}
}

// TestTrainSequenceModels exercises the recurrent side of Train: the
// LSTM and Seq2Seq families train on length-1 sequences of the tabular
// features and serve through the compiled kernel, with PredictBatch
// bit-identical to Predict (the ml.BatchRegressor contract).
func TestTrainSequenceModels(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	sc := testScale()
	sc.Seq2Seq = nn.Seq2SeqConfig{Hidden: 8, Layers: 1, Epochs: 2, Batch: 64}
	for _, m := range []Model{ModelLSTM, ModelSeq2Seq} {
		p, err := Train(d, GroupLM, m, sc)
		if err != nil {
			t.Fatalf("Train(%s): %v", m, err)
		}
		mat := features.Build(d, GroupLM)
		single := make([]float64, len(mat.X))
		for i, x := range mat.X {
			single[i] = p.Predict(x)
			if math.IsNaN(single[i]) || math.IsInf(single[i], 0) {
				t.Fatalf("%s: non-finite prediction for row %d", m, i)
			}
		}
		batch := p.PredictBatch(mat.X)
		for i := range batch {
			if batch[i] != single[i] {
				t.Fatalf("%s: PredictBatch[%d]=%v != Predict=%v", m, i, batch[i], single[i])
			}
		}
	}
}

func TestMergeDatasets(t *testing.T) {
	a, _ := AreaByName("Airport")
	d1 := GenerateArea(a, tinyCampaign())
	d2 := GenerateArea(a, CampaignConfig{Seed: 2, WalkPasses: 1})
	m := MergeDatasets(d1, d2)
	if m.Len() != d1.Len()+d2.Len() {
		t.Fatal("merge len")
	}
}

func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	p, err := Train(d, GroupLM, ModelGDBT, testScale())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Group() != GroupLM || back.Model() != ModelGDBT {
		t.Fatal("metadata lost")
	}
	names := p.FeatureNames()
	backNames := back.FeatureNames()
	for i := range names {
		if names[i] != backNames[i] {
			t.Fatal("feature names lost")
		}
	}
	// Identical predictions across the whole dataset.
	pred, _ := p.PredictDataset(d)
	pred2, _ := back.PredictDataset(d)
	for i := range pred {
		if pred[i] != pred2[i] {
			t.Fatal("loaded predictor predicts differently")
		}
	}
}

func TestPredictorSaveRejectsNonGDBT(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	p, err := Train(d, GroupLM, ModelKNN, testScale())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err == nil {
		t.Fatal("KNN predictors must not be saveable")
	}
}

func TestLoadPredictorGarbage(t *testing.T) {
	if _, err := LoadPredictor(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage should error")
	}
}
