// Package features implements the paper's feature grouping (Table 6): the
// primary groups L (location), M (mobility), T (tower) and C (connection),
// and the composed groups L+M, T+M, L+M+C and T+M+C. It vectorises
// dataset records into model-ready matrices, imputes missing 5G signal
// fields with documented sentinels, encodes circular quantities as
// sin/cos pairs, derives past-throughput features per trace, and windows
// traces into sequences for the Seq2Seq models.
package features

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"lumos5g/internal/dataset"
	"lumos5g/internal/radio"
)

// Group is a feature group or combination.
type Group int

const (
	// GroupL: pixelised location only.
	GroupL Group = iota
	// GroupM: moving speed + compass direction.
	GroupM
	// GroupT: UE-panel distance + positional angle + mobility angle.
	GroupT
	// GroupC: past throughput + radio type + signal strengths + handoffs.
	GroupC
	// GroupLM is the Location+Mobility model.
	GroupLM
	// GroupTM is the Tower+Mobility model (speed + T features; direction
	// is already encoded by θ_m, per Table 6).
	GroupTM
	// GroupLMC is Location+Mobility+Connection.
	GroupLMC
	// GroupTMC is Tower+Mobility+Connection.
	GroupTMC
)

// AllGroups lists the groups evaluated in Tables 7–9, in the paper's
// row order.
var AllGroups = []Group{GroupL, GroupLM, GroupTM, GroupLMC, GroupTMC}

func (g Group) String() string {
	switch g {
	case GroupL:
		return "L"
	case GroupM:
		return "M"
	case GroupT:
		return "T"
	case GroupC:
		return "C"
	case GroupLM:
		return "L+M"
	case GroupTM:
		return "T+M"
	case GroupLMC:
		return "L+M+C"
	case GroupTMC:
		return "T+M+C"
	}
	return "?"
}

// ParseGroup parses names like "L", "T+M", "L+M+C" (order-insensitive,
// case-insensitive).
func ParseGroup(s string) (Group, error) {
	parts := strings.Split(strings.ToUpper(strings.TrimSpace(s)), "+")
	sort.Strings(parts)
	key := strings.Join(parts, "+")
	switch key {
	case "L":
		return GroupL, nil
	case "M":
		return GroupM, nil
	case "T":
		return GroupT, nil
	case "C":
		return GroupC, nil
	case "L+M":
		return GroupLM, nil
	case "M+T":
		return GroupTM, nil
	case "C+L+M":
		return GroupLMC, nil
	case "C+M+T":
		return GroupTMC, nil
	}
	return 0, fmt.Errorf("features: unknown group %q", s)
}

// UsesConnection reports whether the group includes connection (C)
// features — past throughput and PHY-layer state. Sequence models prime
// their decoder with the last observed throughput only for these groups,
// since other groups must not see throughput history (Table 6).
func (g Group) UsesConnection() bool {
	return g == GroupC || g == GroupLMC || g == GroupTMC
}

// Sentinel values used to impute 5G signal fields while the UE is on LTE.
// They sit at the bottom of each field's 3GPP reporting range, so "no 5G
// signal" is ordered below every genuine measurement — a convention tree
// and distance models both digest.
const (
	SentinelSSRsrp = -140.0
	SentinelSSRsrq = -43.0
	SentinelSSSinr = -25.0
)

// PastWindow is the history length for the past-throughput features.
const PastWindow = 5

// Matrix is a vectorised dataset.
type Matrix struct {
	X     [][]float64
	Y     []float64
	Names []string
	// RecordIdx maps each row back to its record index in the source
	// dataset (rows can be skipped, e.g. T groups on unsurveyed areas).
	RecordIdx []int
}

// Build vectorises d under the given feature group. Records not usable
// under g (see appendUsable) are skipped. Past-throughput features are
// derived per trace in time order. The rows are carved from one backing
// slice, so the matrix costs a fixed number of allocations whatever its
// size; each row's capacity ends at its width, so an append to one row
// cannot overwrite the next.
func Build(d *dataset.Dataset, g Group) *Matrix {
	names := featureNames(g)
	w, n := len(names), len(d.Records)
	m := &Matrix{
		Names:     names,
		X:         make([][]float64, 0, n),
		Y:         make([]float64, 0, n),
		RecordIdx: make([]int, 0, n),
	}
	past := pastThroughputs(d)
	slab := make([]float64, n*w)
	for i := range d.Records {
		r := &d.Records[i]
		off := len(m.X) * w
		row, ok := appendUsable(slab[off:off:off+w], r, g, past[i])
		if !ok {
			continue
		}
		m.X = append(m.X, row)
		m.Y = append(m.Y, r.ThroughputMbps)
		m.RecordIdx = append(m.RecordIdx, i)
	}
	return m
}

// appendUsable appends r's feature values under g to row and reports
// whether r is usable under g: every value it yields is finite, the test
// ml.ValidateXY applies to a training row. So a tower group skips a
// record without surveyed panel information (NaN panel fields), and a
// connection group one whose LTE sensor was absent (NaN RSRP): a missing
// sensor drops the record, or a whole tier that has no usable record
// left, instead of failing the fit.
func appendUsable(row []float64, r *dataset.Record, g Group, past pastInfo) ([]float64, bool) {
	start := len(row)
	row = appendFeatures(row, r, g, past)
	for _, v := range row[start:] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return row, false
		}
	}
	return row, true
}

// featureNames returns the column names for a group.
func featureNames(g Group) []string {
	var names []string
	appendL := func() { names = append(names, "pixel_x", "pixel_y") }
	appendSpeed := func() { names = append(names, "moving_speed") }
	appendCompass := func() { names = append(names, "compass_sin", "compass_cos") }
	appendT := func() {
		names = append(names,
			"panel_dist",
			"theta_p_sin", "theta_p_cos",
			"theta_m_sin", "theta_m_cos")
	}
	appendC := func() {
		names = append(names,
			"past_tput_last", "past_tput_hmean",
			"radio_type",
			"lte_rsrp", "lte_rsrq", "lte_rssi",
			"ss_rsrp", "ss_rsrq", "ss_sinr",
			"horizontal_ho", "vertical_ho")
	}
	switch g {
	case GroupL:
		appendL()
	case GroupM:
		appendSpeed()
		appendCompass()
	case GroupT:
		appendT()
	case GroupC:
		appendC()
	case GroupLM:
		appendL()
		appendSpeed()
		appendCompass()
	case GroupTM:
		appendSpeed()
		appendT()
	case GroupLMC:
		appendL()
		appendSpeed()
		appendCompass()
		appendC()
	case GroupTMC:
		appendSpeed()
		appendT()
		appendC()
	}
	return names
}

// pastInfo carries the derived history features for one record.
type pastInfo struct {
	last  float64
	hmean float64
}

// pastThroughputs computes, for every record index, the previous
// throughput and the harmonic mean of the last PastWindow throughputs
// within the same trace: the inclusive history of the trace's previous
// second. The first record of a trace uses its own value (no history
// yet), mirroring how an app warms up its estimator.
func pastThroughputs(d *dataset.Dataset) []pastInfo {
	out := make([]pastInfo, len(d.Records))
	// Group record indices per trace, ordered by second.
	byTrace := make(map[dataset.TraceKey][]int)
	for i := range d.Records {
		r := &d.Records[i]
		k := dataset.TraceKey{Area: r.Area, Trajectory: r.Trajectory, Pass: r.Pass}
		byTrace[k] = append(byTrace[k], i)
	}
	for _, idxs := range byTrace {
		sort.Slice(idxs, func(a, b int) bool {
			return d.Records[idxs[a]].Second < d.Records[idxs[b]].Second
		})
		inclusive := inclusivePast(d, idxs)
		for pos, i := range idxs {
			if pos == 0 {
				cur := d.Records[i].ThroughputMbps
				out[i] = pastInfo{last: cur, hmean: cur}
			} else {
				out[i] = inclusive[pos-1]
			}
		}
	}
	return out
}

func appendFeatures(row []float64, r *dataset.Record, g Group, past pastInfo) []float64 {
	rad := math.Pi / 180
	appendL := func() {
		row = append(row, float64(r.PixelX), float64(r.PixelY))
	}
	appendSpeed := func() { row = append(row, r.SpeedKmh) }
	appendCompass := func() {
		row = append(row, math.Sin(r.CompassDeg*rad), math.Cos(r.CompassDeg*rad))
	}
	appendT := func() {
		row = append(row, r.PanelDist,
			math.Sin(r.ThetaP*rad), math.Cos(r.ThetaP*rad),
			math.Sin(r.ThetaM*rad), math.Cos(r.ThetaM*rad))
	}
	appendC := func() {
		radioType := 0.0
		if r.Radio == radio.RadioNR {
			radioType = 1
		}
		ss := func(v, sentinel float64) float64 {
			if math.IsNaN(v) {
				return sentinel
			}
			return v
		}
		b := func(v bool) float64 {
			if v {
				return 1
			}
			return 0
		}
		row = append(row,
			past.last, past.hmean,
			radioType,
			r.LteRsrp, r.LteRsrq, r.LteRssi,
			ss(r.SSRsrp, SentinelSSRsrp),
			ss(r.SSRsrq, SentinelSSRsrq),
			ss(r.SSSinr, SentinelSSSinr),
			b(r.HorizontalHO), b(r.VerticalHO))
	}
	switch g {
	case GroupL:
		appendL()
	case GroupM:
		appendSpeed()
		appendCompass()
	case GroupT:
		appendT()
	case GroupC:
		appendC()
	case GroupLM:
		appendL()
		appendSpeed()
		appendCompass()
	case GroupTM:
		appendSpeed()
		appendT()
	case GroupLMC:
		appendL()
		appendSpeed()
		appendCompass()
		appendC()
	case GroupTMC:
		appendSpeed()
		appendT()
		appendC()
	}
	return row
}
