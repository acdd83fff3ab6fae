package radio

import (
	"math"

	"lumos5g/internal/geo"
	"lumos5g/internal/rng"
)

// MobilityMode distinguishes how the UE is being carried, which changes
// the blockage physics (hand-held body blockage vs in-vehicle penetration
// loss and beam-tracking failure).
type MobilityMode int

const (
	// Stationary: UE held still.
	Stationary MobilityMode = iota
	// Walking: UE hand-held in front of a walking user (the paper's
	// walking tests, §4.6).
	Walking
	// Driving: UE mounted on a car windshield (the paper's driving
	// tests, §4.6).
	Driving
)

func (m MobilityMode) String() string {
	switch m {
	case Stationary:
		return "stationary"
	case Walking:
		return "walking"
	case Driving:
		return "driving"
	}
	return "unknown"
}

// UEState is the instantaneous kinematic state of one UE.
type UEState struct {
	Pos      geo.Point
	Heading  float64 // compass degrees of travel direction
	SpeedKmh float64
	Mode     MobilityMode
}

// Body / vehicle blockage constants.
const (
	// bodyBlockMaxDB is the worst-case self-body blockage when the user's
	// torso is directly between the hand-held UE and the panel (walking
	// directly away). Measured human-body losses at 28 GHz are 15–25 dB.
	bodyBlockMaxDB = 18.0
	// vehicleLossDB is the penetration loss through car glass/body.
	vehicleLossDB = 11.0
	// beamTrackLossPerKmh is the extra misalignment loss per km/h above
	// beamTrackFreeKmh — mmWave beam management degrades quickly with
	// speed, which is what collapses driving throughput in Fig 14a.
	beamTrackLossPerKmh = 0.55
	beamTrackFreeKmh    = 5.0
	beamTrackLossCapDB  = 16.0
)

// Body blockage elevation scaling: panels are pole-mounted several
// meters above the UE, so near the panel the direct path arrives at a
// steep elevation angle that clears the user's body. Blockage is scaled
// from zero below bodyBlockNearMeters up to full beyond
// bodyBlockFarMeters of horizontal distance.
const (
	bodyBlockNearMeters = 12.0
	bodyBlockFarMeters  = 45.0
)

// BodyBlockageDB returns the self-body blockage loss for a hand-held UE.
// blockAngle is the angular difference between the UE's heading and the
// bearing from the UE to the panel: 0° means the user faces the panel
// (clear), 180° means the panel is directly behind the user (torso blocks
// the LoS). Loss ramps smoothly over the rear half-plane and scales with
// distance (elevation clearance near the panel).
func BodyBlockageDB(blockAngle, distMeters float64) float64 {
	if blockAngle <= 90 {
		return 0
	}
	// Smoothstep from 90° to 180°.
	t := (blockAngle - 90) / 90
	s := t * t * (3 - 2*t)
	elev := (distMeters - bodyBlockNearMeters) / (bodyBlockFarMeters - bodyBlockNearMeters)
	if elev < 0 {
		elev = 0
	}
	if elev > 1 {
		elev = 1
	}
	return bodyBlockMaxDB * s * elev
}

// VehicleLossDB returns penetration plus beam-tracking loss while driving
// at the given speed.
func VehicleLossDB(speedKmh float64) float64 {
	loss := vehicleLossDB
	if speedKmh > beamTrackFreeKmh {
		extra := beamTrackLossPerKmh * (speedKmh - beamTrackFreeKmh)
		if extra > beamTrackLossCapDB {
			extra = beamTrackLossCapDB
		}
		loss += extra
	}
	return loss
}

// Environment bundles everything static about an area's radio conditions.
type Environment struct {
	Panels    []Panel
	Obstacles []Obstacle
	Shadow    *ShadowField
	// ShadowShare in [0,1] mixes a panel-independent, position-only
	// shadowing component into each link: indoors, shadowing is dominated
	// by the clutter around the UE and is therefore strongly correlated
	// across panels serving the same corridor — the "environmental
	// similarity" behind the paper's §6.2 transferability result. 0 means
	// fully panel-specific shadowing (dense urban, distinct propagation
	// paths per panel).
	ShadowShare float64
}

// sharedShadowID is the pseudo-panel ID of the position-only shadow layer.
const sharedShadowID = -2

// shadowAt evaluates the mixed shadowing for a panel/position, preserving
// the marginal standard deviation sigma.
func (e *Environment) shadowAt(panelID int, pos geo.Point, sigma float64) float64 {
	s := e.ShadowShare
	if s <= 0 {
		return e.Shadow.At(panelID, pos, sigma)
	}
	if s > 1 {
		s = 1
	}
	shared := e.Shadow.At(sharedShadowID, pos, sigma)
	own := e.Shadow.At(panelID, pos, sigma)
	return math.Sqrt(s)*shared + math.Sqrt(1-s)*own
}

// LinkSample is the computed radio state between one UE and one panel at
// one instant.
type LinkSample struct {
	Panel     *Panel
	Distance  float64
	ThetaP    float64
	ThetaM    float64
	RxPowerDB float64 // dBm, after all large-scale effects + fading
	MeanRxDB  float64 // dBm, without fast fading (used for handoffs)
	SNRdB     float64
	NLoS      bool
}

// EvalLink computes the link budget between a UE and a panel. src supplies
// the fast-fading draw; pass nil to evaluate the mean (fade-free) link.
func (e *Environment) EvalLink(p *Panel, ue UEState, src *rng.Source) LinkSample {
	d := p.Distance(ue.Pos)
	thetaP := p.PositionalAngle(ue.Pos)
	thetaM := p.MobilityAngle(ue.Heading)

	pl := FreeSpacePathLossDB(d)
	blockLoss, nlos := BlockageLossDB(e.Obstacles, p.Pos, ue.Pos, blockageCapDB)
	sigma := shadowSigmaLoSDB
	if nlos {
		pl += NLoSExtraPathLossDB(d) + blockLoss
		sigma = shadowSigmaNLoSDB
	}
	pl += e.shadowAt(p.ID, ue.Pos, sigma)

	gain := p.GainDBi(thetaP)

	var dynLoss float64
	switch ue.Mode {
	case Walking:
		// Blockage depends on where the panel is relative to the user's
		// facing direction (assumed equal to heading while walking).
		toPanel := geo.BearingPlanar(ue.Pos, p.Pos)
		dynLoss = BodyBlockageDB(geo.AngularDiff(ue.Heading, toPanel), d)
	case Driving:
		dynLoss = VehicleLossDB(ue.SpeedKmh)
	}

	meanRx := EIRPdBm + gain - maxPanelGainDBi - pl - dynLoss
	rx := meanRx
	if src != nil {
		rx += src.NormMeanStd(0, fastFadeSigmaDB)
	}
	return LinkSample{
		Panel:     p,
		Distance:  d,
		ThetaP:    thetaP,
		ThetaM:    thetaM,
		RxPowerDB: rx,
		MeanRxDB:  meanRx,
		SNRdB:     rx - NoiseFloorDBm(),
		NLoS:      nlos,
	}
}

// EvalAll computes link samples for every panel into dst, reusing its
// backing array when it is large enough, and returns them in panel
// order along with the index of the strongest mean link.
func (e *Environment) EvalAll(dst []LinkSample, ue UEState, src *rng.Source) ([]LinkSample, int) {
	if cap(dst) < len(e.Panels) {
		dst = make([]LinkSample, len(e.Panels))
	}
	links := dst[:len(e.Panels)]
	best := -1
	bestRx := math.Inf(-1)
	for i := range e.Panels {
		links[i] = e.EvalLink(&e.Panels[i], ue, src)
		if links[i].MeanRxDB > bestRx {
			bestRx = links[i].MeanRxDB
			best = i
		}
	}
	return links, best
}

// ThroughputMbps converts a link sample to an achievable single-UE TCP
// throughput, dividing the cell capacity equally among sharingUEs active
// UEs on the same panel (proportional-fair full-buffer equal share —
// the behaviour the paper's Fig 21 congestion experiment exhibits).
func (l LinkSample) ThroughputMbps(sharingUEs int) float64 {
	if sharingUEs < 1 {
		sharingUEs = 1
	}
	return ShannonThroughputMbps(l.SNRdB) / float64(sharingUEs)
}
