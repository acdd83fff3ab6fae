package radio

import (
	"math"
	"testing"

	"lumos5g/internal/geo"
	"lumos5g/internal/rng"
)

// testEnv builds a minimal environment: one panel at the origin facing
// north, optional obstacles.
func testEnv(obstacles ...Obstacle) *Environment {
	return &Environment{
		Panels: []Panel{
			{ID: 101, Pos: geo.Point{X: 0, Y: 0}, Facing: 0, Name: "north"},
		},
		Obstacles: obstacles,
		Shadow:    NewShadowField(42),
	}
}

func testLTE() *LTEModel {
	return &LTEModel{AnchorPos: geo.Point{X: 0, Y: 0}, Shadow: NewShadowField(42)}
}

func TestEvalLinkGeometry(t *testing.T) {
	env := testEnv()
	ue := UEState{Pos: geo.Point{X: 0, Y: 50}, Heading: 180, SpeedKmh: 4, Mode: Walking}
	l := env.EvalLink(&env.Panels[0], ue, nil)
	if !approx(l.Distance, 50, 1e-9) {
		t.Fatalf("distance = %v", l.Distance)
	}
	if !approx(l.ThetaP, 0, 1e-9) {
		t.Fatalf("θ_p = %v (UE directly in front)", l.ThetaP)
	}
	// Heading 180 (south, toward panel) with panel facing north: θ_m = 180.
	if !approx(l.ThetaM, 180, 1e-9) {
		t.Fatalf("θ_m = %v", l.ThetaM)
	}
	if l.NLoS {
		t.Fatal("no obstacles: should be LoS")
	}
}

func TestCloseLoSLinkSaturates(t *testing.T) {
	env := testEnv()
	// Walking toward the panel from 15 m in front: best case.
	ue := UEState{Pos: geo.Point{X: 0, Y: 15}, Heading: 180, SpeedKmh: 4, Mode: Walking}
	l := env.EvalLink(&env.Panels[0], ue, nil)
	tp := l.ThroughputMbps(1)
	if tp < 1500 {
		t.Fatalf("close LoS walking-toward throughput = %v Mbps, want near cap", tp)
	}
}

func TestThroughputDecreasesWithDistanceOnAverage(t *testing.T) {
	env := testEnv()
	src := rng.New(1)
	meanAt := func(d float64) float64 {
		sum := 0.0
		const n = 200
		for i := 0; i < n; i++ {
			// Jitter position laterally to average over shadowing.
			x := src.Range(-10, 10)
			ue := UEState{Pos: geo.Point{X: x, Y: d}, Heading: 180, SpeedKmh: 4, Mode: Walking}
			l := env.EvalLink(&env.Panels[0], ue, src)
			sum += l.ThroughputMbps(1)
		}
		return sum / n
	}
	near := meanAt(25)
	mid := meanAt(90)
	far := meanAt(180)
	if !(near > mid && mid > far) {
		t.Fatalf("throughput vs distance not decreasing: %v, %v, %v", near, mid, far)
	}
	if near < 1200 {
		t.Fatalf("near-panel mean = %v Mbps, too low", near)
	}
	if far > 900 {
		t.Fatalf("cell-edge mean = %v Mbps, too high", far)
	}
}

func TestWalkingAwayWorseThanWalkingToward(t *testing.T) {
	env := testEnv()
	src := rng.New(2)
	mean := func(heading float64) float64 {
		sum := 0.0
		const n = 300
		for i := 0; i < n; i++ {
			ue := UEState{Pos: geo.Point{X: src.Range(-5, 5), Y: 60}, Heading: heading, SpeedKmh: 5, Mode: Walking}
			sum += env.EvalLink(&env.Panels[0], ue, src).ThroughputMbps(1)
		}
		return sum / n
	}
	toward := mean(180) // walking south toward the panel: panel ahead
	away := mean(0)     // walking north: panel behind, body blocks
	if away >= toward {
		t.Fatalf("body blockage missing: toward=%v away=%v", toward, away)
	}
	if toward < away*1.2 {
		t.Fatalf("direction effect too weak: toward=%v away=%v", toward, away)
	}
}

func TestDrivingFastWorseThanSlow(t *testing.T) {
	env := testEnv()
	src := rng.New(3)
	mean := func(speed float64) float64 {
		sum := 0.0
		const n = 300
		for i := 0; i < n; i++ {
			ue := UEState{Pos: geo.Point{X: src.Range(-5, 5), Y: 60}, Heading: 180, SpeedKmh: speed, Mode: Driving}
			sum += env.EvalLink(&env.Panels[0], ue, src).ThroughputMbps(1)
		}
		return sum / n
	}
	slow := mean(3)
	fast := mean(35)
	if fast >= slow {
		t.Fatalf("speed penalty missing: slow=%v fast=%v", slow, fast)
	}
	if fast > slow/2 {
		t.Fatalf("driving collapse too weak: slow=%v fast=%v (paper: median falls to 4G-like)", slow, fast)
	}
}

func TestWalkingSpeedBarelyMatters(t *testing.T) {
	env := testEnv()
	src := rng.New(4)
	mean := func(speed float64) float64 {
		sum := 0.0
		const n = 400
		for i := 0; i < n; i++ {
			ue := UEState{Pos: geo.Point{X: src.Range(-5, 5), Y: 60}, Heading: 180, SpeedKmh: speed, Mode: Walking}
			sum += env.EvalLink(&env.Panels[0], ue, src).ThroughputMbps(1)
		}
		return sum / n
	}
	slow := mean(1)
	fast := mean(7)
	// Fig 14b: walking shows little-to-no degradation with speed.
	if math.Abs(slow-fast)/slow > 0.12 {
		t.Fatalf("walking speed should not matter much: %v vs %v", slow, fast)
	}
}

func TestNLoSDegradesLink(t *testing.T) {
	wall := Obstacle{A: geo.Point{X: -20, Y: 30}, B: geo.Point{X: 20, Y: 30}, LossDB: 25, Name: "wall"}
	envLoS := testEnv()
	envNLoS := testEnv(wall)
	src1 := rng.New(5)
	src2 := rng.New(5)
	mean := func(env *Environment, src *rng.Source) float64 {
		sum := 0.0
		const n = 200
		for i := 0; i < n; i++ {
			ue := UEState{Pos: geo.Point{X: src.Range(-5, 5), Y: 60}, Heading: 180, SpeedKmh: 0, Mode: Stationary}
			sum += env.EvalLink(&env.Panels[0], ue, src).ThroughputMbps(1)
		}
		return sum / n
	}
	clear := mean(envLoS, src1)
	blocked := mean(envNLoS, src2)
	if blocked >= clear/3 {
		t.Fatalf("25 dB wall should slash throughput: clear=%v blocked=%v", clear, blocked)
	}
}

func TestEvalAllPicksStrongest(t *testing.T) {
	env := &Environment{
		Panels: []Panel{
			{ID: 1, Pos: geo.Point{X: 0, Y: 0}, Facing: 0},
			{ID: 2, Pos: geo.Point{X: 0, Y: 200}, Facing: 180},
		},
		Shadow: NewShadowField(7),
	}
	ue := UEState{Pos: geo.Point{X: 0, Y: 20}, Heading: 0, Mode: Stationary}
	links, best := env.EvalAll(nil, ue, nil)
	if len(links) != 2 {
		t.Fatal("want 2 links")
	}
	if best != 0 {
		t.Fatalf("UE at 20 m from panel 1 should prefer it, got %d", best)
	}
	ue.Pos = geo.Point{X: 0, Y: 180}
	_, best = env.EvalAll(links, ue, nil)
	if best != 1 {
		t.Fatalf("UE at 20 m from panel 2 should prefer it, got %d", best)
	}
}

func TestSharingDividesThroughput(t *testing.T) {
	env := testEnv()
	ue := UEState{Pos: geo.Point{X: 0, Y: 20}, Heading: 180, Mode: Stationary}
	l := env.EvalLink(&env.Panels[0], ue, nil)
	solo := l.ThroughputMbps(1)
	duo := l.ThroughputMbps(2)
	quad := l.ThroughputMbps(4)
	if !approx(duo, solo/2, 1e-9) || !approx(quad, solo/4, 1e-9) {
		t.Fatalf("PF equal share broken: solo=%v duo=%v quad=%v", solo, duo, quad)
	}
	if l.ThroughputMbps(0) != solo {
		t.Fatal("sharingUEs<1 should clamp to 1")
	}
}

func TestLTEModelRange(t *testing.T) {
	lte := testLTE()
	src := rng.New(11)
	for i := 0; i < 2000; i++ {
		r := lte.ThroughputMbps(geo.Point{X: src.Range(-300, 300), Y: src.Range(-300, 300)}, src)
		if r < 1 || r > ltePeakMbps {
			t.Fatalf("LTE rate out of range: %v", r)
		}
	}
}

func TestLTEMedianRealistic(t *testing.T) {
	lte := testLTE()
	src := rng.New(12)
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = lte.ThroughputMbps(geo.Point{X: 50, Y: 50}, src)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	// 4G-like: tens to ~150 Mbps.
	if mean < 30 || mean > 180 {
		t.Fatalf("LTE mean = %v Mbps, want 4G-like", mean)
	}
}

func TestLTERSRPRange(t *testing.T) {
	lte := testLTE()
	src := rng.New(13)
	for _, d := range []float64{5, 50, 500, 5000} {
		r := lte.RSRPdBm(geo.Point{X: d, Y: 0}, src)
		if r < -130 || r > -55 {
			t.Fatalf("LTE RSRP out of range at %v m: %v", d, r)
		}
	}
	// Farther should be weaker on average.
	near := lte.RSRPdBm(geo.Point{X: 10, Y: 0}, rng.New(14))
	far := lte.RSRPdBm(geo.Point{X: 2000, Y: 0}, rng.New(14))
	if far >= near {
		t.Fatalf("LTE RSRP should decay: near=%v far=%v", near, far)
	}
}

func TestMobilityModeString(t *testing.T) {
	if Stationary.String() != "stationary" || Walking.String() != "walking" ||
		Driving.String() != "driving" || MobilityMode(9).String() != "unknown" {
		t.Fatal("mode strings")
	}
}
