package rng

import (
	"slices"
	"testing"
)

// Perm and PartialShuffle give the row order of every train/holdout
// split (dataset.SplitOrder), the Seq2Seq subsample and GBDT's row
// bagging. These literals are the orders the SplitMix64 stream gave
// when the splits moved onto it: a change to the stream that moves them
// moves every paper table, the calibrated bands and the refit gate.

func TestPermPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want []int
	}{
		{0, []int{2, 5, 0, 3, 4, 6, 1, 7}},
		{1, []int{4, 2, 8, 1, 9, 3, 0, 6, 7, 5}},
		{42, []int{9, 6, 7, 10, 3, 11, 4, 2, 0, 8, 5, 1}},
		{42, []int{16, 3, 8, 11, 17, 18, 4, 6, 19, 7, 10, 1, 14, 9, 12, 2, 5, 0, 15, 13}},
		{2601, []int{0, 5, 9, 8, 13, 11, 15, 10, 6, 14, 4, 7, 3, 2, 12, 1}},
	} {
		if got := New(c.seed).Perm(len(c.want)); !slices.Equal(got, c.want) {
			t.Errorf("seed %d: Perm(%d) = %v, want %v", c.seed, len(c.want), got, c.want)
		}
	}
}

func TestPartialShufflePinned(t *testing.T) {
	p := make([]int, 20)
	for i := range p {
		p[i] = i
	}
	New(7).PartialShuffle(p, 8)
	if want := []int{7, 15, 2, 14, 3, 5, 18, 4}; !slices.Equal(p[:8], want) {
		t.Fatalf("PartialShuffle(20 rows, 8) at seed 7 drew %v, want %v", p[:8], want)
	}
	// The tail keeps the rows not drawn: p stays a permutation.
	sorted := slices.Clone(p)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("PartialShuffle lost or duplicated rows: %v", p)
		}
	}
	// k = 0 draws nothing and leaves the stream where it was.
	a, b := New(7), New(7)
	a.PartialShuffle(p, 0)
	if a.Uint64() != b.Uint64() {
		t.Fatal("PartialShuffle(p, 0) advanced the source")
	}
}
