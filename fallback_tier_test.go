package lumos5g

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// chainBytes trains a chain with train at the given GBDT worker count
// and returns its Save bytes.
func chainBytes(t *testing.T, train func(*Dataset, []FeatureGroup, Model, Scale) (*FallbackChain, error),
	d *Dataset, groups []FeatureGroup, workers int) []byte {
	t.Helper()
	sc := testScale()
	sc.GBDT.Workers = workers
	c, err := train(d, groups, ModelGDBT, sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChainTierWorkerParity: tiers training one at a time (Workers 1)
// and concurrently (0, one per CPU) yield byte-identical chains, for
// both chain trainers, on the default groups and on a group list whose
// tower tiers have no usable rows and are skipped.
func TestChainTierWorkerParity(t *testing.T) {
	airport, _ := AreaByName("Airport")
	loop, _ := AreaByName("Loop")
	full, _ := CleanDataset(GenerateArea(airport, tinyCampaign()))
	unsurveyed, _ := CleanDataset(GenerateArea(loop, tinyCampaign()))
	trainers := map[string]func(*Dataset, []FeatureGroup, Model, Scale) (*FallbackChain, error){
		"TrainFallbackChain":           TrainFallbackChain,
		"TrainCalibratedFallbackChain": TrainCalibratedFallbackChain,
	}
	for name, train := range trainers {
		for _, tc := range []struct {
			d      *Dataset
			groups []FeatureGroup
			tiers  int
		}{
			{full, DefaultFallbackGroups, 3},
			{unsurveyed, []FeatureGroup{GroupTMC, GroupTM, GroupLM, GroupL}, 2},
		} {
			serial := chainBytes(t, train, tc.d, tc.groups, 1)
			if par := chainBytes(t, train, tc.d, tc.groups, 0); !bytes.Equal(serial, par) {
				t.Fatalf("%s %v: Workers 0 chain differs from Workers 1", name, tc.groups)
			}
			c, err := LoadChain(bytes.NewReader(serial))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(c.Tiers()); got != tc.tiers {
				t.Fatalf("%s %v: %d tiers (%v), want %d", name, tc.groups, got, c.TierNames(), tc.tiers)
			}
		}
	}
}

// TestChainTierParallelErrors: the chain reports the first failing
// group in group order — when every tier fails (an unsupported model),
// and when a connection feature is missing, at one worker and with the
// tiers training concurrently: L+M+C then fails on its non-finite
// column and fails the chain, as it did when tiers trained one after
// another (only a group with no usable rows is skipped).
func TestChainTierParallelErrors(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	for _, train := range []func(*Dataset, []FeatureGroup, Model, Scale) (*FallbackChain, error){
		TrainFallbackChain, TrainCalibratedFallbackChain,
	} {
		sc := testScale()
		sc.GBDT.Workers = 0
		if _, err := train(d, nil, Model(99), sc); err == nil || !strings.Contains(err.Error(), "tier L+M+C:") {
			t.Fatalf("unsupported model: err %v, want the L+M+C tier's", err)
		}
	}

	noLTE, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	for i := range noLTE.Records {
		noLTE.Records[i].LteRsrp = math.NaN()
	}
	for _, w := range []int{1, 0} {
		sc := testScale()
		sc.GBDT.Workers = w
		_, err := TrainCalibratedFallbackChain(noLTE, nil, ModelGDBT, sc)
		if err == nil || !strings.Contains(err.Error(), "tier L+M+C: ml: non-finite feature") {
			t.Fatalf("workers %d: err %v, want the L+M+C tier's non-finite feature error", w, err)
		}
	}
}

// TestChainTierParallelDealing drives the tier loop with a stub trainer:
// at most W tiers run at once (one at a time at W = 1), every result
// lands in its group's slot, groups without usable rows drop out, and
// the first error in group order wins even when a later group fails
// first.
func TestChainTierParallelDealing(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	groups := []FeatureGroup{GroupLMC, GroupTMC, GroupLM, GroupTM, GroupL}
	for _, w := range []int{1, 2, 3} {
		var running, peak atomic.Int32
		stub := func(d *Dataset, g FeatureGroup, m Model, sc Scale) (*Predictor, error) {
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond)
			if g == GroupTMC || g == GroupTM {
				return nil, fmt.Errorf("stub: %w for %s", ErrNoUsableRows, g)
			}
			return &Predictor{group: g, model: m}, nil
		}
		sc := Scale{Seed: 1}
		sc.GBDT.Workers = w
		tiers, prior, err := trainTiers(d, groups, ModelGDBT, sc, stub, "stub")
		if err != nil || !(prior > 0) {
			t.Fatalf("w=%d: prior %v err %v", w, prior, err)
		}
		if len(tiers) != 3 || tiers[0].group != GroupLMC || tiers[1].group != GroupLM || tiers[2].group != GroupL {
			t.Fatalf("w=%d: tiers %v out of group order", w, tiers)
		}
		if p := peak.Load(); p > int32(w) || (w == 1 && p != 1) {
			t.Fatalf("w=%d: %d tiers trained at once", w, p)
		}
	}

	// Group 0 fails last in time, group 2 first: group 0's error wins.
	fail := func(d *Dataset, g FeatureGroup, m Model, sc Scale) (*Predictor, error) {
		if g == GroupLMC {
			time.Sleep(20 * time.Millisecond)
		}
		return nil, errors.New("stub failure")
	}
	sc := Scale{Seed: 1}
	sc.GBDT.Workers = 3
	if _, _, err := trainTiers(d, []FeatureGroup{GroupLMC, GroupLM, GroupL}, ModelGDBT, sc, fail, "stub"); err == nil ||
		err.Error() != "lumos5g: train stub tier L+M+C: stub failure" {
		t.Fatalf("err %v, want the first group's", err)
	}
}
