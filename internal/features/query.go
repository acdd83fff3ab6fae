package features

import "math"

// FeatureRange is the plausible value interval for one vectorised
// feature column. The fallback predictor uses these to decide whether a
// query value is trustworthy: a reading outside its physical range is
// treated exactly like a missing sensor (§2.3's UE-side serving path
// must survive both).
type FeatureRange struct {
	Lo, Hi float64
}

// Contains reports whether v is a finite value inside the range.
func (fr FeatureRange) Contains(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= fr.Lo && v <= fr.Hi
}

// Col is one column of the fixed serving schema: every feature column
// Build can produce, in a stable order. The serving path addresses
// query values by Col instead of by name, so a query is a dense row
// plus a validity bitmask rather than a map.
type Col uint8

// The serving schema's columns.
const (
	ColPixelX Col = iota
	ColPixelY
	ColMovingSpeed
	ColCompassSin
	ColCompassCos
	ColPanelDist
	ColThetaPSin
	ColThetaPCos
	ColThetaMSin
	ColThetaMCos
	ColPastTputLast
	ColPastTputHmean
	ColRadioType
	ColLteRsrp
	ColLteRsrq
	ColLteRssi
	ColSSRsrp
	ColSSRsrq
	ColSSSinr
	ColHorizontalHO
	ColVerticalHO
	// NumCols is the schema width.
	NumCols
)

// schema names every column and its valid interval. Bounds follow the
// sensor specs the dataset schema mirrors: Web-Mercator pixel
// coordinates at DefaultZoom, 3GPP signal reporting ranges (widened to
// include the imputation sentinels), and generous kinematic caps.
var schema = [NumCols]struct {
	name string
	rng  FeatureRange
}{
	ColPixelX:      {"pixel_x", FeatureRange{0, 1 << 26}}, // zoom 17 tile space: 2^(17+8) pixels
	ColPixelY:      {"pixel_y", FeatureRange{0, 1 << 26}},
	ColMovingSpeed: {"moving_speed", FeatureRange{0, 500}},
	ColCompassSin:  {"compass_sin", FeatureRange{-1, 1}},
	ColCompassCos:  {"compass_cos", FeatureRange{-1, 1}},
	ColPanelDist:   {"panel_dist", FeatureRange{0, 100e3}},
	ColThetaPSin:   {"theta_p_sin", FeatureRange{-1, 1}},
	ColThetaPCos:   {"theta_p_cos", FeatureRange{-1, 1}},
	ColThetaMSin:   {"theta_m_sin", FeatureRange{-1, 1}},
	ColThetaMCos:   {"theta_m_cos", FeatureRange{-1, 1}},
	// Connection features. Signal floors sit at the imputation
	// sentinels; ceilings at the top of the 3GPP reporting ranges.
	ColPastTputLast:  {"past_tput_last", FeatureRange{0, 100e3}},
	ColPastTputHmean: {"past_tput_hmean", FeatureRange{0, 100e3}},
	ColRadioType:     {"radio_type", FeatureRange{0, 1}},
	ColLteRsrp:       {"lte_rsrp", FeatureRange{-156, -31}},
	ColLteRsrq:       {"lte_rsrq", FeatureRange{-43, 20}},
	ColLteRssi:       {"lte_rssi", FeatureRange{-120, 0}},
	ColSSRsrp:        {"ss_rsrp", FeatureRange{SentinelSSRsrp, -31}},
	ColSSRsrq:        {"ss_rsrq", FeatureRange{SentinelSSRsrq, 20}},
	ColSSSinr:        {"ss_sinr", FeatureRange{SentinelSSSinr, 40}},
	ColHorizontalHO:  {"horizontal_ho", FeatureRange{0, 1}},
	ColVerticalHO:    {"vertical_ho", FeatureRange{0, 1}},
}

// colByName inverts schema for the name-keyed entry points.
var colByName = func() map[string]Col {
	m := make(map[string]Col, NumCols)
	for c := Col(0); c < NumCols; c++ {
		m[schema[c].name] = c
	}
	return m
}()

// Bit returns the column's bit in a validity Mask.
func (c Col) Bit() Mask { return 1 << c }

// ColumnOf returns the schema column of a feature name.
func ColumnOf(name string) (Col, bool) {
	c, ok := colByName[name]
	return c, ok
}

// ValidRange returns the valid interval for a feature column name.
func ValidRange(name string) (FeatureRange, bool) {
	c, ok := colByName[name]
	if !ok {
		return FeatureRange{}, false
	}
	return schema[c].rng, true
}

// GroupNames returns the feature column names Build produces for g.
func GroupNames(g Group) []string { return featureNames(g) }

// Mask is a set of schema columns, bit c standing for Col c.
type Mask uint32

// Query is one typed serving query: a dense value per schema column and
// the set of columns whose value is usable — present, finite and inside
// the column's valid range. The zero Query has no usable column; Set is
// the only way to fill one, so validity always matches the values.
type Query struct {
	vals  [NumCols]float64
	valid Mask
}

// Set stores v in column c and marks the column usable exactly when v
// lies inside its valid range; an unusable reading counts as a missing
// sensor.
func (q *Query) Set(c Col, v float64) {
	q.vals[c] = v
	if schema[c].rng.Contains(v) {
		q.valid |= c.Bit()
	} else {
		q.valid &^= c.Bit()
	}
}

// Valid returns the set of usable columns.
func (q *Query) Valid() Mask { return q.valid }

// Value returns column c's stored value, usable or not.
func (q *Query) Value(c Col) float64 { return q.vals[c] }

// Usable returns column c's value and whether it is usable.
func (q *Query) Usable(c Col) (float64, bool) {
	return q.vals[c], q.valid&c.Bit() != 0
}

// QueryOf converts a name-keyed query. Keys outside the schema are
// ignored: no model column can be fed from them.
func QueryOf(m map[string]float64) Query {
	var q Query
	for name, v := range m {
		if c, ok := colByName[name]; ok {
			q.Set(c, v)
		}
	}
	return q
}
