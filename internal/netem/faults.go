package netem

import (
	"sort"
	"sync"
	"time"

	"lumos5g/internal/rng"
)

// This file is the fault-injection layer of the measurement substrate.
// The paper's defining mmWave phenomena are *failures*: throughput
// collapses to ~0 Mbps in dead zones (§4.2), NR↔LTE handoffs stall TCP
// for seconds (§4.4), and body/vehicle blockage kills individual
// connections (§4.3). A FaultPlan schedules transport impairments of
// those kinds that the Server injects mid-transfer, so the client-side
// pipeline can be exercised against — and must survive — the same
// outages the paper's campaign recorded as data.

// FaultKind classifies one injected impairment.
type FaultKind int

const (
	// FaultReset tears down a single connection abruptly (RST), the way
	// body or vehicle blockage kills one TCP stream (§4.3).
	FaultReset FaultKind = iota
	// FaultStall pauses all writes for a duration while keeping the
	// connections open — the NR↔LTE handoff gap that stalls TCP (§4.4).
	FaultStall
	// FaultBlackout drives the effective link rate to zero for a
	// duration — a dead zone the UE walks through (§4.2).
	FaultBlackout
	// FaultDial makes the server refuse the next accepted connection
	// (closed immediately with a reset), emulating an attach failure at
	// connection-setup time.
	FaultDial
)

func (k FaultKind) String() string {
	switch k {
	case FaultReset:
		return "reset"
	case FaultStall:
		return "stall"
	case FaultBlackout:
		return "blackout"
	case FaultDial:
		return "dial-fail"
	}
	return "unknown"
}

// FaultEvent is one scheduled impairment. At is the offset from plan
// activation (the plan's clock starts at the first server consult, i.e.
// effectively at measurement start). Duration applies to stall/blackout;
// reset and dial-fail are instantaneous one-shots consumed by the first
// connection that trips over them.
type FaultEvent struct {
	Kind     FaultKind
	At       time.Duration
	Duration time.Duration
}

// FaultPlan is a deterministic schedule of impairments consulted by the
// Server. It is safe for concurrent use; the schedule itself is fixed at
// construction so two plans built from equal seeds are identical.
type FaultPlan struct {
	mu      sync.Mutex
	events  []FaultEvent
	done    []bool // one-shots consumed; interval events logged
	fired   []FaultEvent
	started time.Time // zero until first consult
}

// NewFaultPlan builds a plan from an explicit schedule (tests and
// GenerateFaultPlan use this). Events are sorted by offset.
func NewFaultPlan(events ...FaultEvent) *FaultPlan {
	evs := make([]FaultEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return &FaultPlan{events: evs, done: make([]bool, len(evs))}
}

// FaultConfig shapes a generated plan: how many events of each kind to
// place inside the measurement window, and their mean durations.
type FaultConfig struct {
	Resets    int
	Stalls    int
	Blackouts int
	DialFails int
	// StallMean / BlackoutMean are the mean outage lengths; generated
	// durations vary ±50% around them. Zero means 500 ms / 800 ms.
	StallMean    time.Duration
	BlackoutMean time.Duration
}

// GenerateFaultPlan places cfg's events pseudo-randomly inside the first
// 80% of window, deterministically from src: the same seed yields the
// same schedule, which is what makes chaos runs reproducible.
func GenerateFaultPlan(src *rng.Source, window time.Duration, cfg FaultConfig) *FaultPlan {
	stallMean := cfg.StallMean
	if stallMean <= 0 {
		stallMean = 500 * time.Millisecond
	}
	blackMean := cfg.BlackoutMean
	if blackMean <= 0 {
		blackMean = 800 * time.Millisecond
	}
	at := func() time.Duration {
		// Keep events away from the very start (TCP ramp) and the tail
		// (so interval faults still land inside the window).
		return time.Duration(src.Range(0.1, 0.8) * float64(window))
	}
	dur := func(mean time.Duration) time.Duration {
		return time.Duration(src.Range(0.5, 1.5) * float64(mean))
	}
	var evs []FaultEvent
	for i := 0; i < cfg.DialFails; i++ {
		evs = append(evs, FaultEvent{Kind: FaultDial, At: at()})
	}
	for i := 0; i < cfg.Resets; i++ {
		evs = append(evs, FaultEvent{Kind: FaultReset, At: at()})
	}
	for i := 0; i < cfg.Stalls; i++ {
		evs = append(evs, FaultEvent{Kind: FaultStall, At: at(), Duration: dur(stallMean)})
	}
	for i := 0; i < cfg.Blackouts; i++ {
		evs = append(evs, FaultEvent{Kind: FaultBlackout, At: at(), Duration: dur(blackMean)})
	}
	return NewFaultPlan(evs...)
}

// Events returns a copy of the full schedule.
func (p *FaultPlan) Events() []FaultEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FaultEvent, len(p.events))
	copy(out, p.events)
	return out
}

// Fired returns the events that have actually been applied so far.
func (p *FaultPlan) Fired() []FaultEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FaultEvent, len(p.fired))
	copy(out, p.fired)
	return out
}

func (p *FaultPlan) elapsedLocked(now time.Time) time.Duration {
	if p.started.IsZero() {
		p.started = now
	}
	return now.Sub(p.started)
}

// DialFault reports whether an accept-time failure is due: the first
// accept after a pending FaultDial offset consumes it.
func (p *FaultPlan) DialFault(now time.Time) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	el := p.elapsedLocked(now)
	for i, ev := range p.events {
		if ev.Kind == FaultDial && !p.done[i] && el >= ev.At {
			p.done[i] = true
			p.fired = append(p.fired, ev)
			return true
		}
	}
	return false
}

// WriteFault is consulted by a serve loop before each chunk. It returns
// reset=true when this connection must be torn down (one-shot, consumed
// by the first connection that writes past the offset), or pause>0 for
// the remaining length of an active stall/blackout interval.
func (p *FaultPlan) WriteFault(now time.Time) (reset bool, pause time.Duration) {
	if p == nil {
		return false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	el := p.elapsedLocked(now)
	for i, ev := range p.events {
		switch ev.Kind {
		case FaultReset:
			if !p.done[i] && el >= ev.At {
				p.done[i] = true
				p.fired = append(p.fired, ev)
				return true, 0
			}
		case FaultStall, FaultBlackout:
			if el >= ev.At && el < ev.At+ev.Duration {
				if !p.done[i] {
					p.done[i] = true
					p.fired = append(p.fired, ev)
				}
				if r := ev.At + ev.Duration - el; r > pause {
					pause = r
				}
			}
		}
	}
	return false, pause
}
