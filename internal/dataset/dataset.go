// Package dataset defines the per-second measurement record schema
// (mirroring Table 1 of the paper), the data-quality pipeline of §3.1
// (GPS-accuracy discard, warm-up buffer trimming), dataset splitting and
// grouping helpers, CSV serialisation, and campaign summary statistics
// (Table 3).
package dataset

import (
	"math"

	"lumos5g/internal/geo"
	"lumos5g/internal/radio"
	"lumos5g/internal/rng"
)

// Record is one per-second sample with every field of Table 1 plus the
// campaign bookkeeping (area / trajectory / pass) the paper uses to group
// traces.
type Record struct {
	// ---- campaign bookkeeping ----
	Area       string // "Airport", "Intersection", "Loop"
	Trajectory string // "NB", "SB", "W-E", "LOOP", ...
	Pass       int    // repetition index of this trajectory
	Second     int    // seconds since the pass began

	// ---- raw values from Android APIs (Table 1, top half) ----
	Latitude    float64
	Longitude   float64
	GPSAccuracy float64 // meters, reported by the Location API
	Activity    string  // detected activity label
	SpeedKmh    float64 // reported moving speed
	CompassDeg  float64 // azimuth bearing of travel
	CompassAcc  float64 // compass accuracy estimate, degrees

	// ---- post-processed values (Table 1, bottom half) ----
	ThroughputMbps float64 // downlink throughput ground truth
	Radio          radio.RadioType
	CellID         int // serving mCid, -1 on LTE
	LteRsrp        float64
	LteRsrq        float64
	LteRssi        float64
	SSRsrp         float64 // NaN on LTE
	SSRsrq         float64 // NaN on LTE
	SSSinr         float64 // NaN on LTE
	HorizontalHO   bool
	VerticalHO     bool
	PanelDist      float64 // UE-panel distance; NaN if panels unsurveyed
	ThetaP         float64 // positional angle; NaN if unsurveyed
	ThetaM         float64 // mobility angle; NaN if unsurveyed

	// ---- derived ----
	PixelX int // Web-Mercator pixel X at zoom 17 (from measured GPS)
	PixelY int
	Mode   radio.MobilityMode

	// SharingUEs is the number of *other* UEs actively sharing the
	// serving panel this second. The paper could not observe this (it is
	// carrier-side knowledge, §A.1.4) — it is excluded from every UE-side
	// feature group and exists to support the paper's suggested
	// carrier-assisted extension (the "carrier" experiment).
	SharingUEs int
}

// HasPanelInfo reports whether tower-based features are available for
// this record (5G connection in an area with surveyed panels).
func (r *Record) HasPanelInfo() bool {
	return !math.IsNaN(r.PanelDist) && !math.IsNaN(r.ThetaP) && !math.IsNaN(r.ThetaM)
}

// Dataset is an ordered collection of records.
type Dataset struct {
	Records []Record
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Append adds records to the dataset.
func (d *Dataset) Append(recs ...Record) {
	d.Records = append(d.Records, recs...)
}

// Merge concatenates other datasets into a new one (used to build the
// paper's Global dataset from all areas with known panel locations).
func Merge(parts ...*Dataset) *Dataset {
	out := &Dataset{}
	for _, p := range parts {
		out.Records = append(out.Records, p.Records...)
	}
	return out
}

// FilterArea returns the records of one area.
func (d *Dataset) FilterArea(area string) *Dataset {
	out := &Dataset{}
	for _, r := range d.Records {
		if r.Area == area {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Filter returns records matching the predicate.
func (d *Dataset) Filter(keep func(*Record) bool) *Dataset {
	out := &Dataset{}
	for i := range d.Records {
		if keep(&d.Records[i]) {
			out.Records = append(out.Records, d.Records[i])
		}
	}
	return out
}

// Throughputs extracts the throughput column.
func (d *Dataset) Throughputs() []float64 {
	out := make([]float64, len(d.Records))
	for i := range d.Records {
		out[i] = d.Records[i].ThroughputMbps
	}
	return out
}

// quality-filter parameters from §3.1.
const (
	// MaxMeanGPSErrorMeters: the paper "discard[s] data where the average
	// GPS error ... is greater than 5 meters along the trajectory" — an
	// entire pass is dropped when its mean reported accuracy exceeds this.
	MaxMeanGPSErrorMeters = 5.0
	// MaxFixGPSErrorMeters drops individual grossly bad fixes that
	// survive the pass-level rule.
	MaxFixGPSErrorMeters = 12.0
	// WarmupSeconds is the "buffer period" trimmed from the start of
	// each pass while GPS/compass calibrate.
	WarmupSeconds = 10
)

// QualityFilter applies the paper's data-cleaning rules: trim the warm-up
// buffer from each pass, discard whole passes whose average GPS accuracy
// exceeds 5 m, and drop individual grossly bad fixes. It returns the
// cleaned dataset and the number of dropped records.
func (d *Dataset) QualityFilter() (*Dataset, int) {
	// Pass-level mean accuracy.
	sums := make(map[TraceKey]float64)
	counts := make(map[TraceKey]int)
	for i := range d.Records {
		r := &d.Records[i]
		if r.GPSAccuracy > MaxFixGPSErrorMeters {
			// Gross outliers are dropped individually below and do not
			// poison the pass-level average.
			continue
		}
		k := TraceKey{r.Area, r.Trajectory, r.Pass}
		sums[k] += r.GPSAccuracy
		counts[k]++
	}
	badPass := make(map[TraceKey]bool)
	for k, s := range sums {
		if s/float64(counts[k]) > MaxMeanGPSErrorMeters {
			badPass[k] = true
		}
	}
	out := &Dataset{}
	dropped := 0
	for i := range d.Records {
		r := &d.Records[i]
		if badPass[TraceKey{r.Area, r.Trajectory, r.Pass}] {
			dropped++
			continue
		}
		if r.Second < WarmupSeconds && r.Mode != radio.Stationary {
			dropped++
			continue
		}
		if r.GPSAccuracy > MaxFixGPSErrorMeters {
			dropped++
			continue
		}
		out.Records = append(out.Records, *r)
	}
	return out, dropped
}

// TrainFrac is the train share of every train/holdout split: the
// paper's random 70/30 split (§6.1). Evaluation, conformal calibration
// and the ingest refit gate all split at it.
const TrainFrac = 0.7

// SplitOrder is the seeded 70/30 split of n rows: rows perm[:nTrain]
// train and perm[nTrain:] are held out, where perm is
// rng.New(seed).Perm(n) and nTrain is ⌊TrainFrac·n⌋. Every split in
// the repository takes its rows from here.
func SplitOrder(n int, seed uint64) (perm []int, nTrain int) {
	return rng.New(seed).Perm(n), int(float64(n) * TrainFrac)
}

// SplitTrainTest splits the dataset 70/30 by SplitOrder (the paper uses
// a random 70/30 split, §6.1).
func (d *Dataset) SplitTrainTest(seed uint64) (train, test *Dataset) {
	perm, nTrain := SplitOrder(len(d.Records), seed)
	train = &Dataset{Records: make([]Record, 0, nTrain)}
	test = &Dataset{Records: make([]Record, 0, len(perm)-nTrain)}
	for i, idx := range perm {
		if i < nTrain {
			train.Records = append(train.Records, d.Records[idx])
		} else {
			test.Records = append(test.Records, d.Records[idx])
		}
	}
	return train, test
}

// GridGroup buckets records into 2 m × 2 m pixel grids (the Fig 6 / §4.1
// aggregation: zoom-17 pixels are ~1 m, so a 2×2-pixel block is one grid).
type GridGroup struct {
	Key     geo.GridKey
	Records []int // indices into the source dataset
}

// GroupByGrid groups record indices by 2×2-pixel blocks.
func (d *Dataset) GroupByGrid() map[geo.GridKey][]int {
	groups := make(map[geo.GridKey][]int)
	for i := range d.Records {
		r := &d.Records[i]
		key := geo.GridKey{Col: r.PixelX / 2, Row: r.PixelY / 2}
		groups[key] = append(groups[key], i)
	}
	return groups
}

// GridThroughputs maps each grid to the throughput samples inside it,
// keeping only grids with at least minSamples.
func (d *Dataset) GridThroughputs(minSamples int) map[geo.GridKey][]float64 {
	out := make(map[geo.GridKey][]float64)
	for key, idxs := range d.GroupByGrid() {
		if len(idxs) < minSamples {
			continue
		}
		vals := make([]float64, len(idxs))
		for j, i := range idxs {
			vals[j] = d.Records[i].ThroughputMbps
		}
		out[key] = vals
	}
	return out
}

// TraceKey identifies one pass of one trajectory.
type TraceKey struct {
	Area       string
	Trajectory string
	Pass       int
}

// GroupByTrace splits the dataset into per-pass throughput traces, ordered
// by second — the unit of the paper's Spearman trend analysis (§4.2).
func (d *Dataset) GroupByTrace() map[TraceKey][]float64 {
	type tv struct {
		sec int
		val float64
	}
	tmp := make(map[TraceKey][]tv)
	for i := range d.Records {
		r := &d.Records[i]
		k := TraceKey{r.Area, r.Trajectory, r.Pass}
		tmp[k] = append(tmp[k], tv{r.Second, r.ThroughputMbps})
	}
	out := make(map[TraceKey][]float64, len(tmp))
	for k, vs := range tmp {
		// Records are appended in time order per pass; still sort
		// defensively by second using insertion (traces are short).
		for i := 1; i < len(vs); i++ {
			for j := i; j > 0 && vs[j].sec < vs[j-1].sec; j-- {
				vs[j], vs[j-1] = vs[j-1], vs[j]
			}
		}
		trace := make([]float64, len(vs))
		for i, v := range vs {
			trace[i] = v.val
		}
		out[k] = trace
	}
	return out
}

// Stats summarises a campaign the way Table 3 does.
type Stats struct {
	DataPoints  int
	WalkedKm    float64
	DrivenKm    float64
	DownloadGB  float64
	Areas       map[string]int
	NRFraction  float64
	HandoffRate float64 // handoffs (H+V) per 100 samples
}

// Summary computes Table 3-style statistics.
func (d *Dataset) Summary() Stats {
	s := Stats{Areas: make(map[string]int)}
	s.DataPoints = len(d.Records)
	nr := 0
	handoffs := 0
	for i := range d.Records {
		r := &d.Records[i]
		s.Areas[r.Area]++
		meters := r.SpeedKmh / 3.6
		switch r.Mode {
		case radio.Walking:
			s.WalkedKm += meters / 1000
		case radio.Driving:
			s.DrivenKm += meters / 1000
		}
		s.DownloadGB += r.ThroughputMbps / 8 / 1000 // Mb/s → GB over 1 s
		if r.Radio == radio.RadioNR {
			nr++
		}
		if r.HorizontalHO {
			handoffs++
		}
		if r.VerticalHO {
			handoffs++
		}
	}
	if s.DataPoints > 0 {
		s.NRFraction = float64(nr) / float64(s.DataPoints)
		s.HandoffRate = 100 * float64(handoffs) / float64(s.DataPoints)
	}
	return s
}
