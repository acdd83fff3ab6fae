package radio

import (
	"math"

	"lumos5g/internal/rng"
)

// RadioType is the active radio access technology of the UE.
type RadioType int

const (
	// RadioLTE means the UE fell back to the 4G anchor.
	RadioLTE RadioType = iota
	// RadioNR means the UE holds an active mmWave 5G connection.
	RadioNR
)

func (r RadioType) String() string {
	if r == RadioNR {
		return "NR"
	}
	return "LTE"
}

// Handoff thresholds and timers. The values mirror typical NSA EN-DC
// configurations: enter 5G when the beam is comfortably usable, leave when
// it collapses, and apply hysteresis + time-to-trigger between panels so
// the UE does not ping-pong.
const (
	// nrEntrySNRdB: minimum mean SNR to (re)acquire the mmWave leg.
	nrEntrySNRdB = -2.0
	// nrDropSNRdB: mean SNR below which the mmWave leg is released.
	nrDropSNRdB = -6.0
	// panelHysteresisDB: a neighbour panel must beat the serving panel by
	// this margin to trigger a horizontal handoff.
	panelHysteresisDB = 3.0
	// panelTTTSeconds: the margin must hold this long (A3 time-to-trigger).
	panelTTTSeconds = 2
	// hoOutageSeconds / hoOutageFactor: throughput is suppressed right
	// after a handoff while beams re-acquire — visible as the paper's
	// cyan "handoff patches" of degraded throughput (Fig 9).
	hoOutageSeconds = 2
	hoOutageFactor  = 0.25
	// vhoOutageSeconds: vertical (4G↔5G) transitions gap slightly longer.
	vhoOutageSeconds = 3
)

// TickObservation is everything the measurement app would log for one
// second of connection state (the post-processed half of Table 1).
type TickObservation struct {
	Radio             RadioType
	CellID            int // serving 5G panel ID; LTE anchor reports -1
	ThroughputMbps    float64
	SSRsrpDBm         float64 // 5G SS-RSRP (NaN when on LTE)
	SSRsrqDB          float64
	SSSinrDB          float64
	LteRsrpDBm        float64
	LteRsrqDB         float64
	LteRssiDBm        float64
	HorizontalHandoff bool
	VerticalHandoff   bool
	Link              LinkSample // serving-panel geometry (valid on NR)
}

// Connection is the per-UE stateful radio connection manager. The zero
// value is not usable; construct with NewConnection.
type Connection struct {
	env *Environment
	lte *LTEModel
	src *rng.Source

	radio        RadioType
	servingPanel int // index into env.Panels, -1 if none
	candidate    int
	candidateAge int
	outageLeft   int
	belowDropAge int
	fadeDB       float64
	links        []LinkSample // EvalAll's buffer, refilled every Tick
}

// Temporal fading process: AR(1)-correlated small-scale fading applied on
// top of the mean link budget. At 1 Hz sampling, mmWave fading decorrelates
// within a few seconds of walking, hence the moderate correlation.
const (
	fadeRho     = 0.55
	fadeSigmaDB = 2.2
)

// NewConnection creates a connection manager for one UE in the given
// environment. src must be non-nil and dedicated to this connection.
func NewConnection(env *Environment, lte *LTEModel, src *rng.Source) *Connection {
	return &Connection{
		env:          env,
		lte:          lte,
		src:          src,
		radio:        RadioLTE,
		servingPanel: -1,
		candidate:    -1,
	}
}

// Tick advances the connection by one second given the UE's kinematic
// state and the number of other UEs actively sharing the serving panel
// (0 for a solo UE), and returns the observation for this second.
func (c *Connection) Tick(ue UEState, otherSharingUEs int) TickObservation {
	// Handoff decisions use mean (fade-free) links; the serving link's
	// instantaneous quality adds the temporally correlated fading state.
	links, best := c.env.EvalAll(c.links, ue, nil)
	c.links = links
	c.fadeDB = fadeRho*c.fadeDB +
		c.src.NormMeanStd(0, fadeSigmaDB*math.Sqrt(1-fadeRho*fadeRho))
	obs := TickObservation{CellID: -1}

	// LTE side is always measurable (NSA anchor).
	obs.LteRsrpDBm = c.lte.RSRPdBm(ue.Pos, c.src)
	obs.LteRsrqDB = -10.5 + c.src.NormMeanStd(0, 1)
	obs.LteRssiDBm = obs.LteRsrpDBm + 27 + c.src.NormMeanStd(0, 1)

	if best < 0 {
		// No panels in the environment at all: pure LTE.
		c.radio = RadioLTE
		obs.Radio = RadioLTE
		obs.ThroughputMbps = c.lte.ThroughputMbps(ue.Pos, c.src)
		obs.SSRsrpDBm = math.NaN()
		obs.SSRsrqDB = math.NaN()
		obs.SSSinrDB = math.NaN()
		return obs
	}

	bestMeanSNR := links[best].MeanRxDB - NoiseFloorDBm()

	switch c.radio {
	case RadioLTE:
		if bestMeanSNR >= nrEntrySNRdB {
			// Vertical handoff up to 5G.
			c.radio = RadioNR
			c.servingPanel = best
			c.candidate = -1
			c.candidateAge = 0
			c.belowDropAge = 0
			c.outageLeft = vhoOutageSeconds
			obs.VerticalHandoff = true
		}
	case RadioNR:
		serving := links[c.servingPanel]
		servingMeanSNR := serving.MeanRxDB - NoiseFloorDBm()
		if servingMeanSNR < nrDropSNRdB {
			c.belowDropAge++
		} else {
			c.belowDropAge = 0
		}
		if c.belowDropAge >= 1 && bestMeanSNR < nrEntrySNRdB {
			// Whole 5G layer unusable: vertical handoff down to LTE.
			c.radio = RadioLTE
			c.servingPanel = -1
			c.candidate = -1
			c.candidateAge = 0
			c.outageLeft = vhoOutageSeconds
			obs.VerticalHandoff = true
			break
		}
		if best != c.servingPanel &&
			links[best].MeanRxDB > serving.MeanRxDB+panelHysteresisDB {
			if c.candidate == best {
				c.candidateAge++
			} else {
				c.candidate = best
				c.candidateAge = 1
			}
			if c.candidateAge >= panelTTTSeconds {
				// Horizontal handoff.
				c.servingPanel = best
				c.candidate = -1
				c.candidateAge = 0
				c.outageLeft = hoOutageSeconds
				obs.HorizontalHandoff = true
			}
		} else {
			c.candidate = -1
			c.candidateAge = 0
		}
		// If the serving SNR collapsed hard but another panel is fine,
		// allow an immediate recovery handoff (beam failure recovery).
		if c.radio == RadioNR && servingMeanSNR < nrDropSNRdB &&
			best != c.servingPanel && bestMeanSNR >= nrEntrySNRdB && !obs.HorizontalHandoff {
			c.servingPanel = best
			c.candidate = -1
			c.candidateAge = 0
			c.outageLeft = hoOutageSeconds
			obs.HorizontalHandoff = true
		}
	}

	obs.Radio = c.radio
	switch c.radio {
	case RadioNR:
		link := links[c.servingPanel]
		link.RxPowerDB += c.fadeDB
		link.SNRdB += c.fadeDB
		obs.CellID = link.Panel.ID
		obs.Link = link
		// Reported measurements carry 3GPP-style reporting error: SS-RSRP
		// accuracy is several dB and values are quantised to 1 dB steps,
		// so the reported signal only loosely tracks the instantaneous
		// link quality — as on real UEs.
		obs.SSRsrpDBm = clamp(quantize(link.RxPowerDB-33+c.src.NormMeanStd(0, ssMeasSigmaDB), 1), -140, -44)
		obs.SSRsrqDB = clamp(quantize(-10.5-float64(otherSharingUEs)*0.8+c.src.NormMeanStd(0, 1), 0.5), -43, -3)
		obs.SSSinrDB = quantize(link.SNRdB+c.src.NormMeanStd(0, ssMeasSigmaDB), 0.5)
		tput := link.ThroughputMbps(otherSharingUEs + 1)
		if c.outageLeft > 0 {
			tput *= hoOutageFactor
			c.outageLeft--
		}
		// iPerf-style measurement noise (~3%).
		tput *= 1 + c.src.NormMeanStd(0, 0.03)
		if tput < 0 {
			tput = 0
		}
		obs.ThroughputMbps = tput
	case RadioLTE:
		obs.SSRsrpDBm = math.NaN()
		obs.SSRsrqDB = math.NaN()
		obs.SSSinrDB = math.NaN()
		tput := c.lte.ThroughputMbps(ue.Pos, c.src)
		if c.outageLeft > 0 {
			tput *= hoOutageFactor
			c.outageLeft--
		}
		obs.ThroughputMbps = tput
	}
	return obs
}

// ssMeasSigmaDB is the UE's SS measurement reporting error (3GPP allows
// ±4.5 dB absolute accuracy for SS-RSRP; a few dB of effective noise).
const ssMeasSigmaDB = 3.0

// quantize rounds x to the nearest multiple of step (measurement
// reporting granularity).
func quantize(x, step float64) float64 {
	return math.Round(x/step) * step
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
