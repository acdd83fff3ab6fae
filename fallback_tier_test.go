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

// chainBytes trains a chain with train at the given tier worker count
// and returns its Save bytes.
func chainBytes(t *testing.T, train func(*Dataset, []FeatureGroup, Model, Scale) (*FallbackChain, error),
	d *Dataset, groups []FeatureGroup, workers int) []byte {
	t.Helper()
	sc := testScale()
	sc.Workers = workers
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

// TestChainTierWorkerParityAnyFamily: Scale.Workers bounds the tier loop
// for every model family, so KNN and RF chains trained with their tiers
// concurrent (0) and one at a time (1) predict the same bits on every
// row. Only GDBT tiers save, so predictions stand in for Save bytes.
func TestChainTierWorkerParityAnyFamily(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	for _, m := range []Model{ModelKNN, ModelRF} {
		var preds [2][]float64
		for k, w := range []int{1, 0} {
			sc := testScale()
			sc.RF.Trees = 5
			sc.Workers = w
			c, err := TrainFallbackChain(d, nil, m, sc)
			if err != nil {
				t.Fatalf("%v at Workers %d: %v", m, w, err)
			}
			for _, p := range c.Tiers() {
				pred, _ := p.PredictDataset(d)
				preds[k] = append(preds[k], pred...)
			}
		}
		if len(preds[0]) == 0 || len(preds[0]) != len(preds[1]) {
			t.Fatalf("%v: %d vs %d predictions", m, len(preds[0]), len(preds[1]))
		}
		for i := range preds[0] {
			if math.Float64bits(preds[0][i]) != math.Float64bits(preds[1][i]) {
				t.Fatalf("%v row %d: Workers 0 predicts %v, Workers 1 %v", m, i, preds[1][i], preds[0][i])
			}
		}
	}
}

// TestChainTierParallelErrors: the chain reports the first failing
// group in group order when every tier fails (an unsupported model).
// A missing connection feature fails nothing: a record with an absent
// LTE sensor is unusable under L+M+C, so with every RSRP NaN that tier
// has no usable rows and is skipped, and with every other one NaN it
// trains on the finite half, at one worker and with the tiers training
// concurrently alike.
func TestChainTierParallelErrors(t *testing.T) {
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	for _, train := range []func(*Dataset, []FeatureGroup, Model, Scale) (*FallbackChain, error){
		TrainFallbackChain, TrainCalibratedFallbackChain,
	} {
		sc := testScale()
		sc.Workers = 0
		if _, err := train(d, nil, Model(99), sc); err == nil || !strings.Contains(err.Error(), "tier L+M+C:") {
			t.Fatalf("unsupported model: err %v, want the L+M+C tier's", err)
		}
	}

	for _, c := range []struct {
		every int
		tiers string
	}{{1, "L+M L HM"}, {2, "L+M+C L+M L HM"}} {
		noLTE, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
		for i := 0; i < len(noLTE.Records); i += c.every {
			noLTE.Records[i].LteRsrp = math.NaN()
		}
		serial := chainBytes(t, TrainCalibratedFallbackChain, noLTE, nil, 1)
		if par := chainBytes(t, TrainCalibratedFallbackChain, noLTE, nil, 0); !bytes.Equal(serial, par) {
			t.Fatalf("every %d RSRP NaN: Workers 0 chain differs from Workers 1", c.every)
		}
		ch, err := LoadChain(bytes.NewReader(serial))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(ch.TierNames(), " "); got != c.tiers {
			t.Fatalf("every %d RSRP NaN: tiers %s, want %s", c.every, got, c.tiers)
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
		sc.Workers = w
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
	sc.Workers = 3
	if _, _, err := trainTiers(d, []FeatureGroup{GroupLMC, GroupLM, GroupL}, ModelGDBT, sc, fail, "stub"); err == nil ||
		err.Error() != "lumos5g: train stub tier L+M+C: stub failure" {
		t.Fatalf("err %v, want the first group's", err)
	}
}
