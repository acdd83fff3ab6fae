package lumos5g

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/hm"
)

// FallbackChain is a degraded-mode predictor: an ordered list of trained
// Predictors over progressively smaller feature groups, closed by a
// harmonic-mean / prior last resort that needs no features at all.
//
// The paper's feature groups are composable by design (Table 6) so a
// deployment can mix L/M/T/C per what its sensors provide — but a live
// UE loses sensors at runtime too: the compass jams, the modem stops
// reporting SS-RSRP, the panel survey does not cover the current block.
// The chain turns those losses into tier demotions instead of errors:
// each query is served by the first tier whose feature columns are all
// present, finite, and inside their physical ranges
// (features.ValidRange), and the response records which tier served it.
//
// Predict never fails for a well-formed query (any map, including nil):
// the last resort forecasts from the query's own past-throughput
// features when usable (the ABR harmonic-mean estimator the paper
// benchmarks as HM) and otherwise from the training-set prior.
//
// A FallbackChain is safe for concurrent use by multiple goroutines.
type FallbackChain struct {
	tiers []*Predictor
	prior float64
	// hmOff holds conformal offsets for the harmonic-mean / prior last
	// resort (residuals of truth vs the prior), so even featureless
	// answers carry a calibrated band. nil serves degenerate intervals.
	hmOff *ml.ConformalOffsets
	// served[i] counts queries answered by tier i; the last slot is the
	// harmonic-mean / prior last resort.
	served []atomic.Uint64
	// plans[i] resolves tiers[i]'s feature names against the serving
	// schema once, at construction.
	plans []tierPlan
	// missing interns the first tier's Missing list per validity mask
	// (restricted to the first tier's columns). It is a copy-on-write map
	// read lock-free: a served row costs one pointer load and one lookup,
	// and every answer degraded under the same mask shares one read-only
	// slice. A sync.Map would box the key and allocate per lookup.
	missing atomic.Pointer[map[features.Mask][]string]
}

// tierPlan is one tier's feature columns in the serving schema.
type tierPlan struct {
	// cols holds the schema column of each feature name, in name order;
	// a name outside the schema maps to unknownCol.
	cols []features.Col
	// need is the set of cols: the tier serves a query exactly when the
	// query's validity mask covers it.
	need features.Mask
}

// unknownCol stands for a feature name outside the serving schema (an
// artifact may carry any names). Its bit lies above every schema column,
// so no query can cover a need that includes it: an unknown column is
// never usable, and a tier reading one never serves.
const unknownCol = features.NumCols

// maxInternedMasks bounds the interned Missing lists. The serving
// engine sets at most five columns, so it produces at most 32 masks;
// callers feeding arbitrary maps past the bound get fresh slices.
const maxInternedMasks = 256

// LastResortGroup is the Source label of chain predictions served by the
// featureless last resort.
const LastResortGroup = "HM"

// ChainPrediction is one FallbackChain answer with its tier attribution.
type ChainPrediction struct {
	// Mbps is the predicted downlink throughput.
	Mbps float64
	// Class is the §5.2 throughput class of Mbps.
	Class Class
	// Tier is the index of the serving tier; len(chain.Tiers()) means
	// the last resort served.
	Tier int
	// Source names the serving tier's feature group ("L+M+C", "L", ...)
	// or LastResortGroup.
	Source string
	// Degraded reports that at least the first tier was skipped.
	Degraded bool
	// Missing lists the first tier's unusable feature columns when the
	// prediction is degraded (why the preferred model could not run). The
	// slice is interned per validity mask and may be shared across
	// answers and rows: it must not be modified.
	Missing []string
	// P10 and P90 bound the nominal 80% prediction band around Mbps
	// (which is the p50 of the triple). They are filled only by
	// PredictInterval / PredictIntervalBatch and always satisfy
	// P10 <= Mbps <= P90; both are floored at 0 like Mbps itself.
	P10 float64
	P90 float64
	// HasInterval reports that the serving tier carried conformal
	// calibration; when false the band is the degenerate P10 = Mbps =
	// P90 ("no uncertainty estimate"), never an invented one.
	HasInterval bool
}

// DefaultFallbackGroups is the recommended tier order: the full
// Location+Mobility+Connection model, then Location+Mobility once the
// modem stops reporting, then bare Location once even kinematics are
// gone. The chain's built-in last resort covers the empty group.
var DefaultFallbackGroups = []FeatureGroup{GroupLMC, GroupLM, GroupL}

// NewFallbackChain assembles a chain from trained predictors, ordered
// most- to least-demanding. priorMbps is the last-resort forecast used
// when a query carries no usable past-throughput history; it must be a
// positive finite throughput (typically the training set's harmonic
// mean). A chain with zero tiers is legal and serves everything from the
// last resort.
func NewFallbackChain(priorMbps float64, tiers ...*Predictor) (*FallbackChain, error) {
	if math.IsNaN(priorMbps) || math.IsInf(priorMbps, 0) || priorMbps <= 0 {
		return nil, fmt.Errorf("lumos5g: fallback prior must be a positive throughput, got %v", priorMbps)
	}
	for i, p := range tiers {
		if p == nil {
			return nil, fmt.Errorf("lumos5g: fallback tier %d is nil", i)
		}
	}
	c := &FallbackChain{
		tiers: append([]*Predictor(nil), tiers...),
		prior: priorMbps,
	}
	c.served = make([]atomic.Uint64, len(c.tiers)+1)
	c.plans = make([]tierPlan, len(c.tiers))
	for i, p := range c.tiers {
		plan := tierPlan{cols: make([]features.Col, len(p.names))}
		for j, n := range p.names {
			col, ok := features.ColumnOf(n)
			if !ok {
				col = unknownCol
			}
			plan.cols[j] = col
			plan.need |= col.Bit()
		}
		c.plans[i] = plan
	}
	return c, nil
}

// TrainFallbackChain trains one predictor per feature group (in the
// given order) on d and closes the chain with the dataset's harmonic-mean
// throughput as the prior. Groups that yield no usable rows on d (e.g. a
// tower group on an unsurveyed area) are skipped rather than failing the
// whole chain — the result records only the tiers that exist.
func TrainFallbackChain(d *Dataset, groups []FeatureGroup, m Model, sc Scale) (*FallbackChain, error) {
	if len(groups) == 0 {
		groups = DefaultFallbackGroups
	}
	var tiers []*Predictor
	for _, g := range groups {
		p, err := Train(d, g, m, sc)
		if err != nil {
			if errors.Is(err, ErrNoUsableRows) {
				continue
			}
			return nil, fmt.Errorf("lumos5g: train fallback tier %s: %w", g, err)
		}
		tiers = append(tiers, p)
	}
	prior, err := hm.New(d.Len()).Predict(d.Throughputs())
	if err != nil || !(prior > 0) {
		return nil, fmt.Errorf("lumos5g: cannot derive fallback prior from dataset: %v", err)
	}
	return NewFallbackChain(prior, tiers...)
}

// TrainCalibratedFallbackChain is TrainFallbackChain with uncertainty:
// every tier is trained via TrainCalibrated (fit on the seeded train
// split, conformal offsets from the holdout), and the last resort gets
// offsets from the spread of the dataset's throughputs around the
// harmonic-mean prior, so PredictInterval serves a calibrated band from
// every tier including HM.
func TrainCalibratedFallbackChain(d *Dataset, groups []FeatureGroup, m Model, sc Scale) (*FallbackChain, error) {
	if len(groups) == 0 {
		groups = DefaultFallbackGroups
	}
	var tiers []*Predictor
	for _, g := range groups {
		p, err := TrainCalibrated(d, g, m, sc)
		if err != nil {
			if errors.Is(err, ErrNoUsableRows) {
				continue
			}
			return nil, fmt.Errorf("lumos5g: train calibrated fallback tier %s: %w", g, err)
		}
		tiers = append(tiers, p)
	}
	prior, err := hm.New(d.Len()).Predict(d.Throughputs())
	if err != nil || !(prior > 0) {
		return nil, fmt.Errorf("lumos5g: cannot derive fallback prior from dataset: %v", err)
	}
	c, err := NewFallbackChain(prior, tiers...)
	if err != nil {
		return nil, err
	}
	if tput := d.Throughputs(); len(tput) >= ml.MinCalibration {
		priors := make([]float64, len(tput))
		for i := range priors {
			priors[i] = prior
		}
		off, err := ml.CalibrateConformal(priors, tput)
		if err == nil {
			c.hmOff = &off
		}
	}
	return c, nil
}

// SetLastResortOffsets attaches conformal offsets to the chain's
// harmonic-mean / prior last resort (the artifact-load path).
func (c *FallbackChain) SetLastResortOffsets(o ml.ConformalOffsets) error {
	if !o.Valid() {
		return fmt.Errorf("lumos5g: non-finite last-resort offsets %+v", o)
	}
	c.hmOff = &o
	return nil
}

// LastResortOffsets returns the last resort's conformal offsets and
// whether any exist.
func (c *FallbackChain) LastResortOffsets() (ml.ConformalOffsets, bool) {
	if c.hmOff == nil {
		return ml.ConformalOffsets{}, false
	}
	return *c.hmOff, true
}

// HarmonicMeanThroughput is the dataset-wide harmonic-mean throughput —
// the same prior TrainFallbackChain bakes into a chain's last resort.
// Returns 0 when the dataset cannot support one (empty, or all-zero).
func HarmonicMeanThroughput(d *Dataset) float64 {
	if d == nil || d.Len() == 0 {
		return 0
	}
	prior, err := hm.New(d.Len()).Predict(d.Throughputs())
	if err != nil || !(prior > 0) {
		return 0
	}
	return prior
}

// ChainFromPredictor wraps a single trained predictor into a one-tier
// chain — the adapter that lets legacy single-model artifacts serve
// through the degraded-mode path.
func ChainFromPredictor(p *Predictor, priorMbps float64) (*FallbackChain, error) {
	if p == nil {
		return nil, fmt.Errorf("lumos5g: nil predictor")
	}
	return NewFallbackChain(priorMbps, p)
}

// Predict serves one query. q maps vectorised feature column names (see
// Predictor.FeatureNames) to raw values; keys may be absent, NaN, or out
// of range — those columns are treated as missing sensors and demote the
// query to the first tier that is fully satisfied. Predict never fails:
// a nil or empty query is served by the last resort.
func (c *FallbackChain) Predict(q map[string]float64) ChainPrediction {
	return c.predictOne(features.QueryOf(q), false)
}

// PredictInterval serves one query exactly like Predict — same tier
// walk, same Mbps, same served-counter accounting — and additionally
// fills the P10/P90 band from the serving tier's conformal calibration
// (degenerate when the tier is uncalibrated). The triple always
// satisfies P10 <= Mbps <= P90.
func (c *FallbackChain) PredictInterval(q map[string]float64) ChainPrediction {
	return c.predictOne(features.QueryOf(q), true)
}

// PredictBatch serves many queries at once, answering exactly as if
// Predict were called on each in order — same tier attribution, same
// served-counter totals — but batching each tier's satisfied queries
// through the model's vectorised fast path. Queries a tier demotes
// (missing sensors, or a non-finite tier prediction) stay pending for
// the next tier, mirroring the per-query demotion loop.
func (c *FallbackChain) PredictBatch(qs []map[string]float64) []ChainPrediction {
	return c.predictMaps(qs, false)
}

// PredictIntervalBatch serves many queries with P10/P90 bands attached.
// Element i equals PredictInterval(qs[i]) exactly — same tier walk,
// same floats, same served-counter totals.
func (c *FallbackChain) PredictIntervalBatch(qs []map[string]float64) []ChainPrediction {
	return c.predictMaps(qs, true)
}

func (c *FallbackChain) predictOne(q features.Query, withIval bool) ChainPrediction {
	var out [1]ChainPrediction
	c.PredictQueries([]features.Query{q}, out[:], withIval)
	return out[0]
}

func (c *FallbackChain) predictMaps(qs []map[string]float64, withIval bool) []ChainPrediction {
	typed := make([]features.Query, len(qs))
	for i, q := range qs {
		typed[i] = features.QueryOf(q)
	}
	out := make([]ChainPrediction, len(qs))
	c.PredictQueries(typed, out, withIval)
	return out
}

// fillInterval attaches the serving tier's band to an answer whose Mbps
// is already floored at 0.
func fillInterval(cp *ChainPrediction, off *ml.ConformalOffsets) {
	if off == nil {
		cp.P10, cp.P90 = cp.Mbps, cp.Mbps
		return
	}
	iv := off.Interval(cp.Mbps)
	cp.P10, cp.P90 = iv.P10, iv.P90
	if cp.P10 < 0 {
		cp.P10 = 0
	}
	cp.HasInterval = true
}

// PredictQueries is the chain's one serving core, over typed rows: it
// answers qs[i] into out[i] (len(out) must equal len(qs)) exactly as
// Predict — or PredictInterval when intervals is set — answers the
// name-keyed form of the same query. Each tier takes the pending rows
// whose validity covers its columns and runs them through its model as
// one slab of feature rows; rows it cannot serve (missing columns, or a
// non-finite prediction) stay pending for the next tier, and whatever no
// tier serves goes to the last resort.
func (c *FallbackChain) PredictQueries(qs []features.Query, out []ChainPrediction, intervals bool) {
	if len(out) != len(qs) {
		panic(fmt.Sprintf("lumos5g: PredictQueries out has %d slots for %d queries", len(out), len(qs)))
	}
	// Row-index scratch lives on the stack for small calls (the single
	// query paths), so those cost one slab allocation per tier walked.
	var small [2][8]int32
	pending, ready := small[0][:0], small[1][:0]
	if len(qs) > len(small[0]) {
		pending, ready = make([]int32, 0, len(qs)), make([]int32, 0, len(qs))
	}
	for i := range qs {
		pending = append(pending, int32(i))
	}
	var one [1]float64
	for ti, p := range c.tiers {
		if len(pending) == 0 {
			break
		}
		plan := &c.plans[ti]
		ready = ready[:0]
		next := pending[:0]
		for _, qi := range pending {
			if qs[qi].Valid()&plan.need == plan.need {
				ready = append(ready, qi)
			} else {
				next = append(next, qi)
			}
		}
		if len(ready) == 0 {
			pending = next
			continue
		}
		width := len(plan.cols)
		slab := make([]float64, len(ready)*width)
		for k, qi := range ready {
			row := slab[k*width : (k+1)*width]
			q := &qs[qi]
			for j, col := range plan.cols {
				row[j] = q.Value(col)
			}
		}
		preds := predictSlab(p, slab, width, len(ready), one[:])
		source := p.group.String()
		served := 0
		for k, qi := range ready {
			mbps := preds[k]
			if math.IsNaN(mbps) || math.IsInf(mbps, 0) {
				// A tier that produces garbage is treated like a missing
				// sensor: demote rather than propagate.
				next = append(next, qi)
				continue
			}
			if mbps < 0 {
				mbps = 0
			}
			served++
			cp := ChainPrediction{
				Mbps:     mbps,
				Class:    ClassOf(mbps),
				Tier:     ti,
				Source:   source,
				Degraded: ti > 0,
			}
			if ti > 0 {
				cp.Missing = c.missingFor(qs[qi].Valid())
			}
			if intervals {
				fillInterval(&cp, p.ival)
			}
			out[qi] = cp
		}
		c.served[ti].Add(uint64(served))
		pending = next
	}
	// Last resort: the query's own throughput history when usable,
	// otherwise the training prior. Both are the HM estimator's domain.
	last := len(c.tiers)
	for _, qi := range pending {
		q := &qs[qi]
		mbps := c.prior
		if v, ok := q.Usable(features.ColPastTputHmean); ok {
			mbps = v
		} else if v, ok := q.Usable(features.ColPastTputLast); ok {
			mbps = v
		}
		cp := ChainPrediction{
			Mbps:     mbps,
			Class:    ClassOf(mbps),
			Tier:     last,
			Source:   LastResortGroup,
			Degraded: last > 0,
		}
		if last > 0 {
			cp.Missing = c.missingFor(q.Valid())
		}
		if intervals {
			fillInterval(&cp, c.hmOff)
		}
		out[qi] = cp
	}
	c.served[last].Add(uint64(len(pending)))
}

// predictSlab runs n feature rows of one tier, packed width apart in
// slab, through the tier's model: a single row through the model's
// one-row kernel, more as one vectorised batch (element-for-element
// equal, per the ml.BatchRegressor contract). one is the single-row
// result buffer.
func predictSlab(p *Predictor, slab []float64, width, n int, one []float64) []float64 {
	if n == 1 {
		one[0] = p.predictOne(slab)
		return one
	}
	X := make([][]float64, n)
	for k := range X {
		X[k] = slab[k*width : (k+1)*width : (k+1)*width]
	}
	return ml.PredictAll(p.reg, X)
}

// missingFor returns the first tier's unusable feature names under a
// query validity mask — nil when none is — interned per mask.
func (c *FallbackChain) missingFor(valid features.Mask) []string {
	plan := &c.plans[0]
	key := valid & plan.need
	m := c.missing.Load()
	if m != nil {
		if list, ok := (*m)[key]; ok {
			return list
		}
	}
	var list []string
	for j, col := range plan.cols {
		if key&col.Bit() == 0 {
			list = append(list, c.tiers[0].names[j])
		}
	}
	for {
		n := 0
		if m != nil {
			n = len(*m)
		}
		if n >= maxInternedMasks {
			return list
		}
		next := make(map[features.Mask][]string, n+1)
		if m != nil {
			for k, v := range *m {
				next[k] = v
			}
		}
		next[key] = list
		if c.missing.CompareAndSwap(m, &next) {
			return list
		}
		// Another row published first: share its list if it interned
		// this mask, otherwise retry the copy.
		m = c.missing.Load()
		if interned, ok := (*m)[key]; ok {
			return interned
		}
	}
}

// Tiers returns the chain's predictors in serving order.
func (c *FallbackChain) Tiers() []*Predictor {
	return append([]*Predictor(nil), c.tiers...)
}

// Prior returns the last-resort throughput prior in Mbps.
func (c *FallbackChain) Prior() float64 { return c.prior }

// ServedCounts returns how many queries each tier has answered since the
// chain was built; the final element counts the last resort.
func (c *FallbackChain) ServedCounts() []uint64 {
	out := make([]uint64, len(c.served))
	for i := range c.served {
		out[i] = c.served[i].Load()
	}
	return out
}

// TierNames returns the serving-order tier labels, ending with the last
// resort — the /healthz wire form of the chain's shape.
func (c *FallbackChain) TierNames() []string {
	out := make([]string, 0, len(c.tiers)+1)
	for _, p := range c.tiers {
		out = append(out, p.group.String())
	}
	return append(out, LastResortGroup)
}

// String renders the chain shape, e.g. "L+M+C → L+M → L → HM".
func (c *FallbackChain) String() string {
	return strings.Join(c.TierNames(), " → ")
}
