// Package radio models commercial mmWave 5G radio behaviour from first
// principles: directional panel antennas, 28 GHz path loss with spatially
// correlated shadowing, LoS/NLoS obstruction, self-body blockage keyed to
// the UE's walking direction, vehicle penetration and beam-tracking loss
// while driving, SNR→throughput mapping capped near 2 Gbps, proportional
// fair multi-UE sharing, an LTE fallback model, and the horizontal /
// vertical handoff state machine.
//
// These are exactly the mechanisms the paper identifies as the drivers of
// mmWave 5G throughput (§4): because they are modelled mechanistically,
// the simulated dataset reproduces the paper's statistical findings —
// direction sensitivity, distance decay with environment-specific
// exceptions, the driving collapse, dead zones, and congestion sharing —
// without access to the original carrier network.
package radio

import "math"

// Physical-layer constants for the simulated mmWave NR carrier. These are
// calibrated so the link budget reproduces the paper's observed dynamic
// range: ~2 Gbps peak near a panel with LoS, degrading to 4G-like rates
// when blocked, and dead zones past the cell edge.
const (
	// CarrierGHz is the mmWave carrier frequency (Verizon's 28 GHz band).
	CarrierGHz = 28.0
	// BandwidthHz is the aggregated NR carrier bandwidth.
	BandwidthHz = 400e6
	// NoiseFigureDB is the UE receiver noise figure.
	NoiseFigureDB = 9.0
	// MaxSpectralEff caps spectral efficiency at 256-QAM with max rank.
	MaxSpectralEff = 7.4
	// LinkEfficiency folds in coding, control overhead and TCP efficiency.
	LinkEfficiency = 0.65
	// EIRPdBm is the effective radiated power at boresight including UE
	// combining gain. Calibrated (not a spec value) so that SNR ≈ 23 dB at
	// 30 m LoS and the cell edge lands near 200 m, matching the paper's
	// observed coverage footprints.
	EIRPdBm = 37.0
)

// NoiseFloorDBm returns the thermal noise power over the carrier
// bandwidth plus the receiver noise figure.
func NoiseFloorDBm() float64 {
	return -174 + 10*math.Log10(BandwidthHz) + NoiseFigureDB
}

// ShannonThroughputMbps maps an SNR in dB to an achievable TCP-level
// throughput in Mbps using a capped Shannon bound with implementation
// efficiency.
func ShannonThroughputMbps(snrDB float64) float64 {
	snrLin := math.Pow(10, snrDB/10)
	se := math.Log2(1 + snrLin)
	if se > MaxSpectralEff {
		se = MaxSpectralEff
	}
	return BandwidthHz * se * LinkEfficiency / 1e6
}

// DBmToMw converts dBm to milliwatts.
func DBmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MwToDBm converts milliwatts to dBm.
func MwToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}
