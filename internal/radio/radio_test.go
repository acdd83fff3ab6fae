package radio

import (
	"math"
	"testing"

	"lumos5g/internal/geo"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNoiseFloor(t *testing.T) {
	// -174 + 10log10(400e6) + 9 ≈ -78.98 dBm.
	if nf := NoiseFloorDBm(); !approx(nf, -79, 0.1) {
		t.Fatalf("noise floor = %v", nf)
	}
}

func TestMaxThroughputNearTwoGbps(t *testing.T) {
	mx := MaxThroughputMbps()
	if mx < 1800 || mx > 2100 {
		t.Fatalf("PHY cap = %v Mbps, want ~1.9 Gbps (paper's observed peak ~2 Gbps)", mx)
	}
}

func TestShannonThroughputMonotone(t *testing.T) {
	prev := -1.0
	for snr := -20.0; snr <= 60; snr += 1 {
		tp := ShannonThroughputMbps(snr)
		if tp < prev {
			t.Fatalf("throughput not monotone at snr=%v", snr)
		}
		prev = tp
	}
	if ShannonThroughputMbps(60) != MaxThroughputMbps() {
		t.Fatal("high SNR should hit the cap")
	}
	if tp := ShannonThroughputMbps(-20); tp <= 0 || tp > 50 {
		t.Fatalf("very low SNR throughput = %v", tp)
	}
}

func TestDBmConversions(t *testing.T) {
	if !approx(DBmToMw(0), 1, 1e-12) || !approx(DBmToMw(10), 10, 1e-9) {
		t.Fatal("DBmToMw")
	}
	if !approx(MwToDBm(1), 0, 1e-12) || !approx(MwToDBm(100), 20, 1e-9) {
		t.Fatal("MwToDBm")
	}
	if !math.IsInf(MwToDBm(0), -1) {
		t.Fatal("MwToDBm(0) should be -Inf")
	}
}

func TestPanelGainPattern(t *testing.T) {
	p := Panel{ID: 1, Facing: 0}
	if g := p.GainDBi(0); !approx(g, maxPanelGainDBi, 1e-9) {
		t.Fatalf("boresight gain = %v", g)
	}
	// At the half-power beamwidth the attenuation is 12 dB in this
	// pattern form (at θ3dB/2 it would be 3 dB).
	if g := p.GainDBi(halfPowerBeamwidthDeg / 2); !approx(g, maxPanelGainDBi-3, 1e-9) {
		t.Fatalf("gain at half HPBW = %v", g)
	}
	// Behind the panel: max attenuation.
	if g := p.GainDBi(180); !approx(g, maxPanelGainDBi-maxAttenuationDB, 1e-9) {
		t.Fatalf("back gain = %v", g)
	}
	// Symmetric in θ.
	if p.GainDBi(40) != p.GainDBi(320) {
		t.Fatal("gain should be symmetric about boresight")
	}
}

func TestFreeSpacePathLossIncreasing(t *testing.T) {
	prev := 0.0
	for _, d := range []float64{1, 5, 10, 50, 100, 200, 500} {
		pl := FreeSpacePathLossDB(d)
		if pl <= prev {
			t.Fatalf("path loss not increasing at %v m", d)
		}
		prev = pl
	}
	// Sub-meter distances clamp to 1 m.
	if FreeSpacePathLossDB(0.1) != FreeSpacePathLossDB(1) {
		t.Fatal("sub-meter clamp")
	}
}

func TestPathLossSlopeLoS(t *testing.T) {
	// 21 dB per decade.
	diff := FreeSpacePathLossDB(100) - FreeSpacePathLossDB(10)
	if !approx(diff, 21, 1e-9) {
		t.Fatalf("LoS decade slope = %v", diff)
	}
}

func TestShadowFieldDeterministicAndSmooth(t *testing.T) {
	s := NewShadowField(99)
	p := geo.Point{X: 13.7, Y: -42.1}
	if s.At(1, p, 4) != s.At(1, p, 4) {
		t.Fatal("shadowing must be deterministic")
	}
	// Different panels see different shadowing at the same point.
	if s.At(1, p, 4) == s.At(2, p, 4) {
		t.Fatal("different panels should shadow differently")
	}
	// Smoothness: 1 m apart should differ by far less than sigma.
	a := s.At(1, p, 4)
	b := s.At(1, geo.Point{X: p.X + 1, Y: p.Y}, 4)
	if math.Abs(a-b) > 4 {
		t.Fatalf("shadow jumped %v dB over 1 m", math.Abs(a-b))
	}
}

func TestShadowFieldStatistics(t *testing.T) {
	s := NewShadowField(7)
	var sum, sumsq float64
	n := 0
	for x := -500.0; x < 500; x += 9.5 {
		for y := -500.0; y < 500; y += 9.5 {
			v := s.At(3, geo.Point{X: x, Y: y}, 1)
			sum += v
			sumsq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.1 {
		t.Fatalf("shadow mean = %v", mean)
	}
	// Bilinear interpolation reduces variance below node variance; it
	// must still be a substantial fraction of sigma².
	if variance < 0.2 || variance > 1.3 {
		t.Fatalf("shadow variance = %v", variance)
	}
}

func TestBodyBlockage(t *testing.T) {
	const far = 100.0
	if BodyBlockageDB(0, far) != 0 || BodyBlockageDB(90, far) != 0 {
		t.Fatal("facing the panel should have no body loss")
	}
	if got := BodyBlockageDB(180, far); !approx(got, bodyBlockMaxDB, 1e-9) {
		t.Fatalf("back-to-panel loss = %v", got)
	}
	// Monotone over the rear half-plane.
	prev := -1.0
	for a := 90.0; a <= 180; a += 5 {
		v := BodyBlockageDB(a, far)
		if v < prev {
			t.Fatalf("body loss not monotone at %v", a)
		}
		prev = v
	}
	// Elevation clearance: no body loss right under the panel, partial
	// at mid range.
	if BodyBlockageDB(180, 5) != 0 {
		t.Fatal("steep elevation should clear the body")
	}
	mid := BodyBlockageDB(180, (bodyBlockNearMeters+bodyBlockFarMeters)/2)
	if mid <= 0 || mid >= bodyBlockMaxDB {
		t.Fatalf("mid-range blockage = %v, want partial", mid)
	}
}

func TestVehicleLoss(t *testing.T) {
	if got := VehicleLossDB(0); !approx(got, vehicleLossDB, 1e-9) {
		t.Fatalf("stationary vehicle loss = %v", got)
	}
	if VehicleLossDB(3) != VehicleLossDB(0) {
		t.Fatal("below 5 km/h there is no beam-tracking penalty")
	}
	if VehicleLossDB(30) <= VehicleLossDB(10) {
		t.Fatal("beam tracking loss should grow with speed")
	}
	// Cap.
	if !approx(VehicleLossDB(1000), vehicleLossDB+beamTrackLossCapDB, 1e-9) {
		t.Fatal("beam tracking loss should cap")
	}
}

func TestSegmentsIntersect(t *testing.T) {
	a := geo.Point{X: 0, Y: 0}
	b := geo.Point{X: 10, Y: 10}
	if !segmentsIntersect(a, b, geo.Point{X: 0, Y: 10}, geo.Point{X: 10, Y: 0}) {
		t.Fatal("crossing diagonals should intersect")
	}
	if segmentsIntersect(a, b, geo.Point{X: 20, Y: 0}, geo.Point{X: 30, Y: 0}) {
		t.Fatal("distant segments should not intersect")
	}
	// Touching endpoint counts.
	if !segmentsIntersect(a, b, geo.Point{X: 10, Y: 10}, geo.Point{X: 20, Y: 10}) {
		t.Fatal("touching endpoint should count as intersecting")
	}
	// Parallel non-overlapping.
	if segmentsIntersect(a, b, geo.Point{X: 0, Y: 1}, geo.Point{X: 10, Y: 11}) {
		t.Fatal("parallel offset segments should not intersect")
	}
}

func TestObstacleBlocks(t *testing.T) {
	wall := Obstacle{A: geo.Point{X: -5, Y: 5}, B: geo.Point{X: 5, Y: 5}, LossDB: 20}
	panel := geo.Point{X: 0, Y: 0}
	if !wall.Blocks(panel, geo.Point{X: 0, Y: 10}) {
		t.Fatal("wall between panel and UE should block")
	}
	if wall.Blocks(panel, geo.Point{X: 0, Y: 4}) {
		t.Fatal("UE before the wall should be clear")
	}
	if wall.Blocks(panel, geo.Point{X: 20, Y: 10}) {
		t.Fatal("ray missing the wall should be clear")
	}
}

func TestObstacleClearBeyond(t *testing.T) {
	booth := Obstacle{
		A: geo.Point{X: -5, Y: 50}, B: geo.Point{X: 5, Y: 50},
		LossDB: 15, ClearBeyond: 100,
	}
	panel := geo.Point{X: 0, Y: 0}
	if !booth.Blocks(panel, geo.Point{X: 0, Y: 70}) {
		t.Fatal("UE at 70 m should be blocked by the booth")
	}
	if booth.Blocks(panel, geo.Point{X: 0, Y: 150}) {
		t.Fatal("UE beyond ClearBeyond should regain LoS (Fig 11b behaviour)")
	}
}

func TestBlockageLossAccumulatesAndCaps(t *testing.T) {
	panel := geo.Point{X: 0, Y: 0}
	ue := geo.Point{X: 0, Y: 100}
	obstacles := []Obstacle{
		{A: geo.Point{X: -5, Y: 10}, B: geo.Point{X: 5, Y: 10}, LossDB: 20},
		{A: geo.Point{X: -5, Y: 20}, B: geo.Point{X: 5, Y: 20}, LossDB: 20},
		{A: geo.Point{X: -5, Y: 30}, B: geo.Point{X: 5, Y: 30}, LossDB: 20},
	}
	loss, nlos := BlockageLossDB(obstacles, panel, ue, 38)
	if !nlos {
		t.Fatal("should be NLoS")
	}
	if loss != 38 {
		t.Fatalf("loss should cap at 38, got %v", loss)
	}
	loss, nlos = BlockageLossDB(obstacles[:1], panel, ue, 38)
	if loss != 20 || !nlos {
		t.Fatalf("single obstacle loss = %v, nlos = %v", loss, nlos)
	}
	loss, nlos = BlockageLossDB(nil, panel, ue, 38)
	if loss != 0 || nlos {
		t.Fatal("no obstacles should be LoS")
	}
}

// MaxThroughputMbps is the PHY-capped achievable rate for one UE.
func MaxThroughputMbps() float64 {
	return BandwidthHz * MaxSpectralEff * LinkEfficiency / 1e6
}
