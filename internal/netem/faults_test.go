package netem

import (
	"context"
	"reflect"
	"testing"
	"time"

	"lumos5g/internal/rng"
)

func TestGenerateFaultPlanDeterministic(t *testing.T) {
	cfg := FaultConfig{Resets: 2, Stalls: 2, Blackouts: 1, DialFails: 1}
	a := GenerateFaultPlan(rng.New(42), 30*time.Second, cfg)
	b := GenerateFaultPlan(rng.New(42), 30*time.Second, cfg)
	if len(a.Events()) != 6 {
		t.Fatalf("want 6 events, got %d", len(a.Events()))
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a.Events(), b.Events())
	}
	c := GenerateFaultPlan(rng.New(43), 30*time.Second, cfg)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, ev := range a.Events() {
		if ev.At < 0 || ev.At > 30*time.Second {
			t.Fatalf("event outside window: %+v", ev)
		}
	}
}

func TestFaultPlanOneShotConsumption(t *testing.T) {
	plan := NewFaultPlan(
		FaultEvent{Kind: FaultReset, At: 0},
		FaultEvent{Kind: FaultStall, At: 0, Duration: 50 * time.Millisecond},
	)
	now := time.Now()
	if reset, _ := plan.WriteFault(now); !reset {
		t.Fatal("first write past the offset must be reset")
	}
	// The reset is consumed; the stall interval still applies.
	reset, pause := plan.WriteFault(now.Add(10 * time.Millisecond))
	if reset {
		t.Fatal("reset must be one-shot")
	}
	if pause <= 0 || pause > 50*time.Millisecond {
		t.Fatalf("expected remaining stall, got %v", pause)
	}
	if _, pause := plan.WriteFault(now.Add(time.Second)); pause != 0 {
		t.Fatalf("stall should be over, got pause %v", pause)
	}
	if got := len(plan.Fired()); got != 2 {
		t.Fatalf("fired log: want 2, got %d", got)
	}
}

func TestFaultPlanDialFault(t *testing.T) {
	plan := NewFaultPlan(FaultEvent{Kind: FaultDial, At: 0})
	now := time.Now()
	if !plan.DialFault(now) {
		t.Fatal("pending dial fault not applied")
	}
	if plan.DialFault(now.Add(time.Millisecond)) {
		t.Fatal("dial fault must be one-shot")
	}
	var nilPlan *FaultPlan
	if nilPlan.DialFault(now) {
		t.Fatal("nil plan must be a no-op")
	}
	if reset, pause := nilPlan.WriteFault(now); reset || pause != 0 {
		t.Fatal("nil plan must be a no-op for writes")
	}
}

// TestSeededChaosMeasurementCompletes is the acceptance scenario: a
// seeded plan injecting a reset, a stall and a blackout during a
// 30-sample measurement must not abort the run — all 30 samples arrive,
// outage intervals appear as explicit 0 Mbps data, and the schedule is
// identical across two invocations with the same seed.
func TestSeededChaosMeasurementCompletes(t *testing.T) {
	const (
		samples  = 30
		interval = 100 * time.Millisecond
		seed     = 7
	)
	cfg := FaultConfig{
		Resets: 1, Stalls: 1, Blackouts: 1,
		StallMean: 500 * time.Millisecond, BlackoutMean: 800 * time.Millisecond,
	}
	window := time.Duration(samples) * interval

	run := func() (*MeasureReport, []FaultEvent, []FaultEvent) {
		t.Helper()
		plan := GenerateFaultPlan(rng.New(seed), window, cfg)
		srv, err := NewServerWithFaults(NewShaper(80e6), plan)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := &Client{Connections: 4, SampleInterval: interval, Seed: seed}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rep, err := c.MeasureFull(ctx, srv.Addr(), samples)
		if err != nil {
			t.Fatalf("chaos measurement must complete, got %v (report %+v)", err, rep)
		}
		return rep, plan.Events(), plan.Fired()
	}

	rep1, sched1, fired1 := run()
	rep2, sched2, _ := run()

	if len(rep1.Samples) != samples || len(rep2.Samples) != samples {
		t.Fatalf("incomplete runs: %d and %d samples", len(rep1.Samples), len(rep2.Samples))
	}
	if !reflect.DeepEqual(sched1, sched2) {
		t.Fatalf("fault schedule not deterministic:\n%v\n%v", sched1, sched2)
	}
	// Every scheduled event fired: the transfer ran long enough to hit
	// the reset, the stall and the blackout.
	if len(fired1) != len(sched1) {
		t.Fatalf("only %d of %d scheduled events fired: %v", len(fired1), len(sched1), fired1)
	}
	// The stall+blackout cover >1 s of the 3 s window; at least one
	// sample interval must record an explicit zero (outage data, not an
	// error).
	if rep1.Zeros == 0 {
		t.Fatalf("no zero-throughput samples recorded through the outages: %v", rep1.Samples)
	}
}

func TestDialFaultTriggersClientRetry(t *testing.T) {
	plan := NewFaultPlan(FaultEvent{Kind: FaultDial, At: 0})
	srv, err := NewServerWithFaults(NewShaper(50e6), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Connections: 2, SampleInterval: 50 * time.Millisecond, Seed: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := c.MeasureFull(ctx, srv.Addr(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 6 {
		t.Fatalf("want 6 samples, got %d", len(rep.Samples))
	}
	// One accepted connection was reset at setup. Depending on kernel
	// timing the RST lands either on the victim's first read or on the
	// in-flight dial itself; either way the supervisor must log the
	// failure and re-dial.
	var faultErrs, retries int
	for _, st := range rep.Conns {
		faultErrs += st.ReadErrors + st.Stalls + st.DialErrors
		retries += st.Retries
	}
	if faultErrs == 0 || retries == 0 {
		t.Fatalf("expected a retried connection, got %+v", rep.Conns)
	}
	fired := plan.Fired()
	if len(fired) != 1 || fired[0].Kind != FaultDial {
		t.Fatalf("fired log: %v", fired)
	}
}
