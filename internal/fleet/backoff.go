package fleet

import (
	"context"
	"sync"
	"time"

	"lumos5g/internal/rng"
)

// jitter is a seeded source of backoff jitter, shared under its lock by
// every backoff of one owner (the router, or the fleet's supervisors).
type jitter struct {
	mu  sync.Mutex
	src *rng.Source
}

func newJitter(seed uint64) *jitter { return &jitter{src: rng.New(seed)} }

// backoff is one capped exponential retry sequence: the router's
// replica walks and the supervisor's restart loop each pace themselves
// with one. Every delay is drawn uniformly from [0.5, 1.5) × the
// current step — the same spread the netem client uses — so
// synchronized retries from many callers against one recovering
// replica de-correlate.
type backoff struct {
	jit             *jitter
	base, max, step time.Duration
}

func newBackoff(jit *jitter, base, max time.Duration) backoff {
	return backoff{jit: jit, base: base, max: max, step: base}
}

// next returns the next jittered delay and doubles the step, capped at
// max.
func (b *backoff) next() time.Duration {
	b.jit.mu.Lock()
	f := b.jit.src.Range(0.5, 1.5)
	b.jit.mu.Unlock()
	d := time.Duration(f * float64(b.step))
	b.step = min(2*b.step, b.max)
	return d
}

// reset starts the sequence over at base.
func (b *backoff) reset() { b.step = b.base }

// wait sleeps the next delay unless ctx ends first; reports whether it
// slept out.
func (b *backoff) wait(ctx context.Context) bool {
	t := time.NewTimer(b.next())
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
