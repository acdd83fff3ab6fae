package radio

import (
	"math"
	"testing"

	"lumos5g/internal/geo"
	"lumos5g/internal/rng"
)

func newTestConn(env *Environment) *Connection {
	return NewConnection(env, &LTEModel{AnchorPos: geo.Point{X: 0, Y: 0}, Shadow: env.Shadow}, rng.New(77))
}

func TestConnectionAcquires5GNearPanel(t *testing.T) {
	env := testEnv()
	c := newTestConn(env)
	ue := UEState{Pos: geo.Point{X: 0, Y: 30}, Heading: 180, Mode: Stationary}
	var sawVHO bool
	for i := 0; i < 10; i++ {
		obs := c.Tick(ue, 0)
		if obs.VerticalHandoff {
			sawVHO = true
		}
	}
	if c.Radio() != RadioNR {
		t.Fatal("UE 30 m in front of a panel should be on 5G")
	}
	if !sawVHO {
		t.Fatal("acquiring 5G should be recorded as a vertical handoff")
	}
	if c.ServingPanelID() != 101 {
		t.Fatalf("serving panel = %d", c.ServingPanelID())
	}
}

func TestConnectionStaysLTEFarAway(t *testing.T) {
	env := testEnv()
	c := newTestConn(env)
	ue := UEState{Pos: geo.Point{X: 0, Y: 2000}, Heading: 0, Mode: Stationary}
	for i := 0; i < 10; i++ {
		obs := c.Tick(ue, 0)
		if obs.Radio != RadioLTE {
			t.Fatal("UE 2 km away should stay on LTE")
		}
		if !math.IsNaN(obs.SSRsrpDBm) {
			t.Fatal("SS-RSRP should be NaN on LTE")
		}
		if obs.CellID != -1 {
			t.Fatal("cell ID should be -1 on LTE")
		}
		if obs.ThroughputMbps <= 0 {
			t.Fatal("LTE throughput should be positive")
		}
	}
}

func TestVerticalHandoffDownWhenBlocked(t *testing.T) {
	// A heavy wall appears between the UE and the panel when it crosses
	// behind it; emulate by moving the UE far behind the panel where
	// gain + distance collapse SNR.
	env := testEnv()
	c := newTestConn(env)
	near := UEState{Pos: geo.Point{X: 0, Y: 30}, Heading: 180, Mode: Stationary}
	for i := 0; i < 5; i++ {
		c.Tick(near, 0)
	}
	if c.Radio() != RadioNR {
		t.Fatal("precondition: should be on NR")
	}
	far := UEState{Pos: geo.Point{X: 0, Y: -3000}, Heading: 0, Mode: Stationary}
	var dropped bool
	for i := 0; i < 10; i++ {
		obs := c.Tick(far, 0)
		if obs.VerticalHandoff && obs.Radio == RadioLTE {
			dropped = true
		}
	}
	if !dropped || c.Radio() != RadioLTE {
		t.Fatal("losing the 5G layer should trigger a vertical handoff to LTE")
	}
}

func TestHorizontalHandoffBetweenPanels(t *testing.T) {
	env := &Environment{
		Panels: []Panel{
			{ID: 1, Pos: geo.Point{X: 0, Y: 0}, Facing: 0},
			{ID: 2, Pos: geo.Point{X: 0, Y: 300}, Facing: 180},
		},
		Shadow: NewShadowField(3),
	}
	c := newTestConn(env)
	// Start near panel 1.
	for i := 0; i < 5; i++ {
		c.Tick(UEState{Pos: geo.Point{X: 0, Y: 30}, Heading: 0, Mode: Stationary}, 0)
	}
	if c.ServingPanelID() != 1 {
		t.Fatalf("should start on panel 1, got %d", c.ServingPanelID())
	}
	// Walk north toward panel 2; at some point a horizontal handoff must
	// occur (with hysteresis + TTT it takes a few ticks).
	sawHHO := false
	y := 30.0
	for i := 0; i < 240 && !sawHHO; i++ {
		y += 1.4
		obs := c.Tick(UEState{Pos: geo.Point{X: 0, Y: y}, Heading: 0, SpeedKmh: 5, Mode: Stationary}, 0)
		if obs.HorizontalHandoff {
			sawHHO = true
		}
	}
	if !sawHHO {
		t.Fatal("no horizontal handoff while crossing between panels")
	}
	if c.ServingPanelID() != 2 {
		t.Fatalf("should end on panel 2, got %d", c.ServingPanelID())
	}
}

func TestHandoffOutageSuppressesThroughput(t *testing.T) {
	env := testEnv()
	c := newTestConn(env)
	ue := UEState{Pos: geo.Point{X: 0, Y: 25}, Heading: 180, Mode: Stationary}
	first := c.Tick(ue, 0) // triggers vertical handoff onto NR
	if !first.VerticalHandoff {
		t.Fatal("expected immediate 5G acquisition")
	}
	// The next couple of ticks are still inside the outage window.
	duringOutage := c.Tick(ue, 0)
	var steady float64
	for i := 0; i < 10; i++ {
		steady = c.Tick(ue, 0).ThroughputMbps
	}
	if duringOutage.ThroughputMbps > steady*0.6 {
		t.Fatalf("handoff outage not visible: during=%v steady=%v",
			duringOutage.ThroughputMbps, steady)
	}
}

func TestCongestionHalvesThroughput(t *testing.T) {
	env := testEnv()
	c := newTestConn(env)
	ue := UEState{Pos: geo.Point{X: 0, Y: 25}, Heading: 180, Mode: Stationary}
	for i := 0; i < 6; i++ {
		c.Tick(ue, 0)
	}
	var solo, shared float64
	const n = 50
	for i := 0; i < n; i++ {
		solo += c.Tick(ue, 0).ThroughputMbps
	}
	for i := 0; i < n; i++ {
		shared += c.Tick(ue, 1).ThroughputMbps
	}
	ratio := shared / solo
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("one extra UE should halve throughput (Fig 21): ratio = %v", ratio)
	}
}

func TestNoPanelsEnvironment(t *testing.T) {
	env := &Environment{Shadow: NewShadowField(1)}
	c := newTestConn(env)
	obs := c.Tick(UEState{Pos: geo.Point{X: 0, Y: 0}}, 0)
	if obs.Radio != RadioLTE || obs.ThroughputMbps <= 0 {
		t.Fatal("panel-less environment should serve LTE")
	}
}

func TestObservationSignalRanges(t *testing.T) {
	env := testEnv()
	c := newTestConn(env)
	ue := UEState{Pos: geo.Point{X: 0, Y: 40}, Heading: 180, SpeedKmh: 4, Mode: Walking}
	for i := 0; i < 50; i++ {
		obs := c.Tick(ue, 0)
		if obs.Radio == RadioNR {
			if obs.SSRsrpDBm < -140 || obs.SSRsrpDBm > -44 {
				t.Fatalf("SS-RSRP out of 3GPP range: %v", obs.SSRsrpDBm)
			}
			if obs.SSRsrqDB < -43 || obs.SSRsrqDB > -3 {
				t.Fatalf("SS-RSRQ out of 3GPP range: %v", obs.SSRsrqDB)
			}
		}
		if obs.LteRsrpDBm < -130 || obs.LteRsrpDBm > -55 {
			t.Fatalf("LTE RSRP out of range: %v", obs.LteRsrpDBm)
		}
		if obs.ThroughputMbps < 0 {
			t.Fatal("negative throughput")
		}
	}
}

func TestRadioTypeString(t *testing.T) {
	if RadioNR.String() != "NR" || RadioLTE.String() != "LTE" {
		t.Fatal("radio strings")
	}
}

// Radio returns the current radio type.
func (c *Connection) Radio() RadioType { return c.radio }

// ServingPanelID returns the serving 5G panel's cell ID, or -1 on LTE.
func (c *Connection) ServingPanelID() int {
	if c.radio != RadioNR || c.servingPanel < 0 {
		return -1
	}
	return c.env.Panels[c.servingPanel].ID
}

// TestTickAllocs: a Connection evaluates its links into one buffer it
// keeps, so a simulated second allocates nothing once the first has
// sized it — on 5G near the panel and on LTE past its reach alike.
func TestTickAllocs(t *testing.T) {
	env := testEnv()
	c := newTestConn(env)
	ue := UEState{Pos: geo.Point{X: 0, Y: 30}, Heading: 180, Mode: Walking, SpeedKmh: 4}
	c.Tick(ue, 0)
	step := 0
	if n := testing.AllocsPerRun(200, func() {
		step++
		ue.Pos.Y = 30 + float64(step%100)*25
		c.Tick(ue, 1)
	}); n != 0 {
		t.Fatalf("Tick allocates %v times per simulated second", n)
	}
}
