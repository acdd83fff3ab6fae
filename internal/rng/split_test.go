package rng

import "testing"

// The deterministic parallel paths (sim shard pipeline, forest/gbdt
// training) rely on three properties of the split API, pinned here:
// SplitN is exactly n serial Splits, SplitLabeled never advances the
// parent, and State/Restore round-trips continue the identical stream
// across splits.

func TestSplitNMatchesRepeatedSplit(t *testing.T) {
	a := New(42)
	b := New(42)
	got := a.SplitN(8)
	for i := 0; i < 8; i++ {
		want := b.Split()
		for j := 0; j < 16; j++ {
			if g, w := got[i].Uint64(), want.Uint64(); g != w {
				t.Fatalf("child %d draw %d: SplitN %d != Split %d", i, j, g, w)
			}
		}
	}
	// Both parents must end in the same state too.
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitN consumed a different number of parent draws than 8 Splits")
	}
}

func TestSplitLabeledDoesNotAdvanceParent(t *testing.T) {
	a := New(7)
	b := New(7)
	for _, label := range []string{"x", "kinematics", "area:Airport", ""} {
		_ = a.SplitLabeled(label)
	}
	for i := 0; i < 16; i++ {
		if g, w := a.Uint64(), b.Uint64(); g != w {
			t.Fatalf("draw %d: parent perturbed by SplitLabeled (%d != %d)", i, g, w)
		}
	}
}

func TestSplitChildrenPairwiseDistinct(t *testing.T) {
	kids := New(1).SplitN(16)
	seen := map[uint64]int{}
	for i, k := range kids {
		v := k.Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("children %d and %d start with the same draw %d", prev, i, v)
		}
		seen[v] = i
	}
}

func TestStateRoundTripMidSequence(t *testing.T) {
	s := New(99)
	for i := 0; i < 5; i++ {
		s.Uint64()
	}
	// Norm leaves a spare Box-Muller deviate buffered; the snapshot must
	// carry it or the restored stream skips a value.
	s.Norm()
	st := s.State()
	want := []float64{s.Norm(), s.Float64(), s.Norm(), s.Float64()}
	s.Restore(st)
	got := []float64{s.Norm(), s.Float64(), s.Norm(), s.Float64()}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d after restore: %v != %v", i, got[i], want[i])
		}
	}
}

func TestStateRoundTripAcrossSplits(t *testing.T) {
	s := New(3)
	st := s.State()
	var want []uint64
	for _, c := range s.SplitN(4) {
		want = append(want, c.Uint64())
	}
	wantLabeled := s.SplitLabeled("still").Uint64()
	wantParent := s.Uint64()

	s.Restore(st)
	for i, c := range s.SplitN(4) {
		if g := c.Uint64(); g != want[i] {
			t.Fatalf("restored child %d: %d != %d", i, g, want[i])
		}
	}
	if g := s.SplitLabeled("still").Uint64(); g != wantLabeled {
		t.Fatalf("restored labeled child: %d != %d", g, wantLabeled)
	}
	if g := s.Uint64(); g != wantParent {
		t.Fatalf("restored parent: %d != %d", g, wantParent)
	}
}

// SplitN derives n independent child streams in one serial pass,
// consuming exactly n draws from the parent. It is the pre-split API of
// the deterministic parallel paths: a coordinator splits once, hands
// stream k to worker k, and the result is bit-identical no matter how
// the workers interleave — equivalent to calling Split n times in a row.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}
