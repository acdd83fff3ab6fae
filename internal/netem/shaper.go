// Package netem is the TCP measurement harness: the equivalent of
// the paper's cross-compiled iPerf 3.7 setup (§3.1). It provides a
// token-bucket Shaper that stands in for the mmWave radio bottleneck, a
// bulk-transfer TCP Server that streams through the shaper, and a Client
// that opens parallel TCP connections (the paper uses 8, because one
// connection cannot saturate the 5G downlink) and reports per-second
// application-layer throughput, the quantity the paper records as ground
// truth. The harness is standalone: the simulated dataset's throughput
// comes from the radio model, not from TCP runs.
package netem

import (
	"context"
	"sync"
	"time"
)

// Shaper is a thread-safe token bucket expressed in bits per second. The
// rate can be changed at runtime, so a measurement can step the emulated
// link mid-run.
type Shaper struct {
	mu       sync.Mutex
	rateBps  float64
	tokens   float64 // bits available
	capacity float64 // bucket size in bits
	last     time.Time
	// perConnBps, when positive, additionally caps each individual
	// connection — modelling the paper's observation that a single TCP
	// connection cannot fill the 5G pipe (window/rtt limits), which is
	// why their app opens 8.
	perConnBps float64
}

// burstSeconds sizes the bucket: a short burst keeps shaping accurate at
// 1-second measurement granularity.
const burstSeconds = 0.05

// NewShaper creates a shaper at the given aggregate rate in bits/sec.
func NewShaper(rateBps float64) *Shaper {
	s := &Shaper{last: time.Now()}
	s.SetRate(rateBps)
	return s
}

// SetRate updates the aggregate rate (bits/sec). Safe for concurrent use.
func (s *Shaper) SetRate(rateBps float64) {
	if rateBps < 1 {
		rateBps = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refillLocked(time.Now())
	s.rateBps = rateBps
	s.capacity = rateBps * burstSeconds
	if s.tokens > s.capacity {
		s.tokens = s.capacity
	}
}

// Rate returns the current aggregate rate in bits/sec.
func (s *Shaper) Rate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rateBps
}

// SetPerConnRate caps each connection (bits/sec); 0 disables the cap.
func (s *Shaper) SetPerConnRate(bps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.perConnBps = bps
}

// PerConnRate returns the per-connection cap (0 = none).
func (s *Shaper) PerConnRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perConnBps
}

func (s *Shaper) refillLocked(now time.Time) {
	dt := now.Sub(s.last).Seconds()
	if dt > 0 {
		s.tokens += dt * s.rateBps
		if s.tokens > s.capacity {
			s.tokens = s.capacity
		}
		s.last = now
	}
}

// Take blocks until n bytes may be sent, or the context is cancelled.
func (s *Shaper) Take(ctx context.Context, nBytes int) error {
	bits := float64(nBytes) * 8
	for {
		s.mu.Lock()
		now := time.Now()
		s.refillLocked(now)
		if s.tokens >= bits {
			s.tokens -= bits
			s.mu.Unlock()
			return nil
		}
		need := bits - s.tokens
		wait := time.Duration(need / s.rateBps * float64(time.Second))
		s.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}
