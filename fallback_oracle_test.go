package lumos5g

import (
	"math"
	"reflect"
	"testing"

	"lumos5g/internal/features"
	"lumos5g/internal/rng"
)

// missingFeatures reports which of the named columns are unusable in the
// query: absent from the map, NaN/Inf, or outside the column's valid
// range; unknown columns are never usable. It is the name-keyed
// definition of a demotion, kept as the oracle the chain's typed
// validity masks must agree with.
func missingFeatures(q map[string]float64, names []string) []string {
	var missing []string
	for _, n := range names {
		v, ok := q[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		fr, known := features.ValidRange(n)
		if !known || !fr.Contains(v) {
			missing = append(missing, n)
		}
	}
	return missing
}

// oracleUsable is the name-keyed last-resort history check.
func oracleUsable(q map[string]float64, name string) (float64, bool) {
	v, ok := q[name]
	if !ok {
		return 0, false
	}
	fr, known := features.ValidRange(name)
	if !known || !fr.Contains(v) {
		return 0, false
	}
	return v, true
}

// oraclePredict walks the chain one query at a time over the map, with
// every tier's one-row model path: the chain's semantics stated without
// typed rows, masks, slabs or interning. Every answer carries the
// serving tier's band. It does not touch the served counters.
func oraclePredict(c *FallbackChain, q map[string]float64) ChainPrediction {
	var firstMissing []string
	degradedMissing := func(degraded bool) []string {
		if !degraded || len(firstMissing) == 0 {
			return nil
		}
		return firstMissing
	}
	for i, p := range c.tiers {
		missing := missingFeatures(q, p.names)
		if i == 0 {
			firstMissing = missing
		}
		if len(missing) > 0 {
			continue
		}
		x := make([]float64, len(p.names))
		for j, n := range p.names {
			x[j] = q[n]
		}
		mbps := p.Predict(x)
		if math.IsNaN(mbps) || math.IsInf(mbps, 0) {
			continue
		}
		mbps = math.Max(mbps, 0)
		cp := ChainPrediction{Mbps: mbps, Class: ClassOf(mbps), Tier: i, Source: p.group.String(),
			Degraded: i > 0, Missing: degradedMissing(i > 0)}
		fillInterval(&cp, p.ival)
		return cp
	}
	mbps := c.prior
	if v, ok := oracleUsable(q, "past_tput_hmean"); ok {
		mbps = v
	} else if v, ok := oracleUsable(q, "past_tput_last"); ok {
		mbps = v
	}
	last := len(c.tiers)
	cp := ChainPrediction{Mbps: mbps, Class: ClassOf(mbps), Tier: last, Source: LastResortGroup,
		Degraded: last > 0, Missing: degradedMissing(last > 0)}
	fillInterval(&cp, c.hmOff)
	return cp
}

// randomQuery perturbs a fully-satisfied query: keys dropped, set to
// NaN, ±Inf or out of range, unknown keys added, and the history
// features the last resort reads made present, absent or unusable.
func randomQuery(src *rng.Source, base map[string]float64) map[string]float64 {
	if src.Intn(20) == 0 {
		return nil
	}
	q := make(map[string]float64, len(base)+2)
	// Vary the damage per query so every tier gets traffic.
	damage := []int{0, 4, 40}[src.Intn(3)]
	for k, v := range base {
		if damage == 0 || src.Intn(damage) != 0 {
			q[k] = v
			continue
		}
		switch src.Intn(4) {
		case 0:
			// absent
		case 1:
			q[k] = math.NaN()
		case 2:
			q[k] = math.Inf(1 - 2*src.Intn(2))
		case 3:
			q[k] = 1e9 * float64(1-2*src.Intn(2)) // outside every range
		}
	}
	if src.Intn(3) == 0 {
		q["bogus_column"] = src.Range(-10, 10)
	}
	if src.Intn(6) == 0 {
		delete(q, "pixel_x")
	}
	for _, k := range []string{"past_tput_hmean", "past_tput_last"} {
		switch src.Intn(4) {
		case 0:
			delete(q, k)
		case 1:
			q[k] = -5
		default:
			q[k] = src.Range(0, 2000)
		}
	}
	return q
}

// sameAnswer compares two chain answers field by field, floats by bit
// pattern and Missing including nil-ness.
func sameAnswer(a, b ChainPrediction) bool {
	bits := math.Float64bits
	return bits(a.Mbps) == bits(b.Mbps) && bits(a.P10) == bits(b.P10) && bits(a.P90) == bits(b.P90) &&
		a.Class == b.Class && a.Tier == b.Tier && a.Source == b.Source && a.Degraded == b.Degraded &&
		a.HasInterval == b.HasInterval && reflect.DeepEqual(a.Missing, b.Missing)
}

// TestChainMatchesNameKeyedOracle: on randomized map queries the typed
// serving core answers both entry points — PredictInterval and
// PredictIntervalBatch — exactly as the name-keyed oracle walk does: same
// tier, same Mbps and band, same Missing list.
func TestChainMatchesNameKeyedOracle(t *testing.T) {
	c, d := trainCalibratedTestChain(t)
	// A tier reading a column outside the serving schema (an artifact
	// can name anything) never serves and always reports that column.
	odd := *c.tiers[2]
	odd.names = []string{"pixel_x", "pixel_zz"}
	withUnknown, err := NewFallbackChain(c.prior, &odd, c.tiers[1], c.tiers[2])
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewFallbackChain(c.prior)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(77)
	for _, chain := range []*FallbackChain{c, withUnknown, bare} {
		served := make([]int, len(chain.tiers)+1)
		base := fullQuery(d)
		qs := make([]map[string]float64, 300)
		for i := range qs {
			qs[i] = randomQuery(src, base)
		}
		batch := chain.PredictIntervalBatch(qs)
		for i, q := range qs {
			want := oraclePredict(chain, q)
			one := chain.PredictInterval(q)
			if !sameAnswer(one, want) {
				t.Fatalf("%s query %d %v:\n got %+v\nwant %+v", chain, i, q, one, want)
			}
			if !sameAnswer(batch[i], want) {
				t.Fatalf("%s batch row %d %v:\n got %+v\nwant %+v", chain, i, q, batch[i], want)
			}
			served[want.Tier]++
		}
		for tier, n := range served {
			if n == 0 && (chain == c || tier > 0) {
				t.Fatalf("%s: no random query reached tier %d (%v)", chain, tier, served)
			}
		}
	}
}
