package radio

import "lumos5g/internal/geo"

// Panel is a single mmWave transceiver face. The paper observed one to
// three panels per tower deployment, each facing a different direction
// (§3.1 footnote 4); dual-panel towers are modelled as two Panels at the
// same location with opposite facings.
type Panel struct {
	// ID is the cell identity (mCid in the paper's ServiceState parsing).
	ID int
	// Pos is the panel location in the area's local frame.
	Pos geo.Point
	// Facing is the compass bearing of the line normal to the panel's
	// front face, in degrees.
	Facing float64
	// Name is a human-readable label ("north", "SW-A", ...).
	Name string
}

// Antenna gain pattern parameters (3GPP TR 38.901-style single sector).
const (
	// maxPanelGainDBi is the boresight array gain.
	maxPanelGainDBi = 23.0
	// halfPowerBeamwidthDeg is the azimuth 3 dB beamwidth of the sector.
	halfPowerBeamwidthDeg = 65.0
	// maxAttenuationDB is the front-to-back attenuation limit.
	maxAttenuationDB = 30.0
)

// GainDBi returns the panel antenna gain toward a UE at the given
// positional angle θ_p (degrees, 0 = boresight). It uses the standard
// parabolic sector pattern A(θ) = -min(12 (θ/θ3dB)², A_max) plus the
// boresight gain, so UEs behind the panel (θ_p near 180°) see
// maxPanelGainDBi − maxAttenuationDB.
func (p Panel) GainDBi(thetaP float64) float64 {
	off := geo.AngularDiff(thetaP, 0) // 0..180 off-boresight
	a := 12 * (off / halfPowerBeamwidthDeg) * (off / halfPowerBeamwidthDeg)
	if a > maxAttenuationDB {
		a = maxAttenuationDB
	}
	return maxPanelGainDBi - a
}

// PositionalAngle returns θ_p for a UE at pos (see geo.PositionalAngle).
func (p Panel) PositionalAngle(pos geo.Point) float64 {
	return geo.PositionalAngle(p.Pos, p.Facing, pos)
}

// MobilityAngle returns θ_m for a UE heading (see geo.MobilityAngle).
func (p Panel) MobilityAngle(ueHeading float64) float64 {
	return geo.MobilityAngle(p.Facing, ueHeading)
}

// Distance returns the UE-panel distance in meters.
func (p Panel) Distance(pos geo.Point) float64 {
	return p.Pos.Dist(pos)
}
