package core

import (
	"slices"
	"testing"

	"lumos5g/internal/dataset"
	"lumos5g/internal/features"
	"lumos5g/internal/rng"
)

// rowSets returns n rows as a dataset, a sequence set and a feature
// matrix, row i carrying i (as Second, RecordIdx and Y), so each split
// can report which rows it put on which side.
func rowSets(n int) (*dataset.Dataset, *features.SequenceSet, *features.Matrix) {
	d := &dataset.Dataset{}
	set := &features.SequenceSet{}
	m := &features.Matrix{}
	for i := 0; i < n; i++ {
		v := float64(i)
		d.Records = append(d.Records, dataset.Record{Second: i})
		set.X = append(set.X, [][]float64{{v}})
		set.Y = append(set.Y, []float64{v})
		set.RecordIdx = append(set.RecordIdx, i)
		set.LastY = append(set.LastY, v)
		m.X = append(m.X, []float64{v})
		m.Y = append(m.Y, v)
	}
	return d, set, m
}

// splitRows returns the rows each split puts on its train and holdout
// sides, in the order it returns them.
func splitRows(n int, seed uint64) (dsTrain, dsTest, seqTrain, seqTest, mTrain, mTest []int) {
	d, set, m := rowSets(n)
	trD, teD := d.SplitTrainTest(seed)
	for _, r := range trD.Records {
		dsTrain = append(dsTrain, r.Second)
	}
	for _, r := range teD.Records {
		dsTest = append(dsTest, r.Second)
	}
	trS, teS := set.SplitTrainTest(seed)
	_, trY, _, teY := SplitMatrix(m, seed)
	for _, y := range trY {
		mTrain = append(mTrain, int(y))
	}
	for _, y := range teY {
		mTest = append(mTest, int(y))
	}
	return dsTrain, dsTest, trS.RecordIdx, teS.RecordIdx, mTrain, mTest
}

// TestSplitsPinned pins the train side every split returns at seed 42
// over 20 rows, and Subsample's draw, to the rows the splits picked
// before they shared rng.Perm: a change that moves them moves every
// paper table, the calibrated bands and the refit gate's split.
func TestSplitsPinned(t *testing.T) {
	want := []int{16, 3, 8, 11, 17, 18, 4, 6, 19, 7, 10, 1, 14, 9}
	dsTrain, _, seqTrain, _, mTrain, _ := splitRows(20, 42)
	for name, got := range map[string][]int{"Dataset": dsTrain, "SequenceSet": seqTrain, "SplitMatrix": mTrain} {
		if !slices.Equal(got, want) {
			t.Errorf("%s train side = %v, want %v", name, got, want)
		}
	}
	_, set, _ := rowSets(20)
	if got, want := set.Subsample(8, 7).RecordIdx, []int{7, 15, 2, 14, 3, 5, 18, 4}; !slices.Equal(got, want) {
		t.Errorf("Subsample(8) at seed 7 = %v, want %v", got, want)
	}
}

// TestSplitsFollowPerm: all three splits put row i on the train side
// exactly when rng.New(seed).Perm(n) places i among its first
// ⌊TrainFrac·n⌋ positions, each side in Perm's order.
func TestSplitsFollowPerm(t *testing.T) {
	n, seed := 97, uint64(2601)
	perm := rng.New(seed).Perm(n)
	nTrain := int(float64(n) * dataset.TrainFrac)
	if nTrain != 67 {
		t.Fatalf("⌊0.7·%d⌋ = %d, want 67", n, nTrain)
	}
	wantTrain, wantTest := perm[:nTrain], perm[nTrain:]
	dsTrain, dsTest, seqTrain, seqTest, mTrain, mTest := splitRows(n, seed)
	for _, c := range []struct {
		name        string
		train, test []int
	}{{"Dataset", dsTrain, dsTest}, {"SequenceSet", seqTrain, seqTest}, {"SplitMatrix", mTrain, mTest}} {
		if !slices.Equal(c.train, wantTrain) || !slices.Equal(c.test, wantTest) {
			t.Errorf("%s split %v | %v, want Perm's %v | %v", c.name, c.train, c.test, wantTrain, wantTest)
		}
	}
}
