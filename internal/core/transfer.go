package core

import (
	"fmt"

	"lumos5g/internal/dataset"
	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/stats"
)

// TransferResult holds the §6.2 transferability analysis: a T+M model
// trained on one panel's data and tested on another's. The paper trains
// on the Airport North panel, tests on the South panel, and reports
// w-avgF1 0.71 overall rising to 0.91 within 25 m.
type TransferResult struct {
	TrainPanelID int
	TestPanelID  int
	// OverallF1 is the weighted-average F1 on all test-panel samples.
	OverallF1 float64
	// NearF1 is the F1 restricted to UE-panel distance < NearMeters.
	NearF1     float64
	NearMeters float64
	NTest      int
	NNear      int
}

// Transferability trains a GDBT T+M model on records served by
// trainPanelID and evaluates it on records served by testPanelID,
// overall and within nearMeters.
func Transferability(d *dataset.Dataset, trainPanelID, testPanelID int, nearMeters float64, sc Scale) (*TransferResult, error) {
	sc = sc.withDefaults()
	trainSet := d.Filter(func(r *dataset.Record) bool { return r.CellID == trainPanelID })
	testSet := d.Filter(func(r *dataset.Record) bool { return r.CellID == testPanelID })
	if trainSet.Len() == 0 || testSet.Len() == 0 {
		return nil, fmt.Errorf("core: transferability needs data on both panels (train %d, test %d rows)",
			trainSet.Len(), testSet.Len())
	}
	trainM := features.Build(trainSet, features.GroupTM)
	testM := features.Build(testSet, features.GroupTM)
	if len(trainM.X) == 0 || len(testM.X) == 0 {
		return nil, fmt.Errorf("core: transferability needs T features on both panels")
	}
	model, err := NewRegressor(ModelGDBT, sc)
	if err != nil {
		return nil, err
	}
	if err := model.Fit(trainM.X, trainM.Y); err != nil {
		return nil, err
	}

	pred := ml.PredictAll(model, testM.X)
	cmAll := stats.NewConfusionMatrix(ml.NumClasses, ml.ClassesOf(pred), ml.ClassesOf(testM.Y))

	// Near-subset: T+M's first feature after speed is panel_dist; find it
	// by name to stay robust to group layout changes.
	distCol := -1
	for j, n := range testM.Names {
		if n == "panel_dist" {
			distCol = j
			break
		}
	}
	if distCol < 0 {
		return nil, fmt.Errorf("core: panel_dist feature missing from T+M")
	}
	var nearPred, nearTruth []float64
	for i, row := range testM.X {
		if row[distCol] < nearMeters {
			nearPred = append(nearPred, pred[i])
			nearTruth = append(nearTruth, testM.Y[i])
		}
	}
	res := &TransferResult{
		TrainPanelID: trainPanelID,
		TestPanelID:  testPanelID,
		OverallF1:    cmAll.WeightedF1(),
		NearMeters:   nearMeters,
		NTest:        len(testM.Y),
		NNear:        len(nearTruth),
	}
	if len(nearTruth) > 0 {
		cmNear := stats.NewConfusionMatrix(ml.NumClasses, ml.ClassesOf(nearPred), ml.ClassesOf(nearTruth))
		res.NearF1 = cmNear.WeightedF1()
	}
	return res, nil
}
