// Package rng provides deterministic, splittable pseudo-random number
// generation for the Lumos5G simulator and ML stack.
//
// Every stochastic component of the repository (fading draws, GPS noise,
// tree subsampling, weight initialisation, ...) derives its randomness from
// an rng.Source seeded from a parent, so that a single top-level seed makes
// an entire measurement campaign and training run reproducible. Sources are
// intentionally NOT safe for concurrent use; split one per goroutine.
package rng

import "math"

// Source is a deterministic PRNG based on SplitMix64. It is small, fast,
// passes BigCrush for the purposes we need, and—critically—can be split
// into independent child streams without coordination.
type Source struct {
	state uint64
	// spare Gaussian value for the Box-Muller transform.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden gamma used by SplitMix64.
const gamma = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split derives an independent child stream. The child's sequence shares no
// correlation with the parent's subsequent output in any test we rely on.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// SplitLabeled derives a child stream bound to a string label, so that
// adding a new consumer of randomness does not perturb unrelated streams.
func (s *Source) SplitLabeled(label string) *Source {
	h := s.state
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001B3
	}
	// Mix once through SplitMix finalizer so short labels diverge fully.
	h += gamma
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return &Source{state: h ^ (h >> 31)}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal deviate using Box-Muller.
func (s *Source) Norm() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.gauss = v * f
	s.hasGauss = true
	return u * f
}

// NormMeanStd returns a normal deviate with the given mean and std dev.
func (s *Source) NormMeanStd(mean, std float64) float64 {
	return mean + std*s.Norm()
}

// LogNormal returns exp(N(mu, sigma)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.NormMeanStd(mu, sigma))
}

// Exp returns an exponentially distributed value with the given rate.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(1-s.Float64()) / rate
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher-Yates).
func (s *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// PartialShuffle draws k distinct elements of p into p[:k] without
// replacement (a forward partial Fisher-Yates: position i swaps with a
// uniform position in [i, len(p))). The rest of p is what the draw left
// behind. k must not exceed len(p).
func (s *Source) PartialShuffle(p []int, k int) {
	for i := 0; i < k; i++ {
		j := i + s.Intn(len(p)-i)
		p[i], p[j] = p[j], p[i]
	}
}

// State is a serialisable snapshot of a Source — what a long-run
// checkpoint persists so an interrupted job resumes with an identical
// random stream.
type State struct {
	S        uint64  `json:"s"`
	Gauss    float64 `json:"gauss,omitempty"`
	HasGauss bool    `json:"has_gauss,omitempty"`
}

// State captures the source's full state, including the spare Box-Muller
// deviate, so Restore continues the exact sequence.
func (s *Source) State() State {
	return State{S: s.state, Gauss: s.gauss, HasGauss: s.hasGauss}
}

// Restore overwrites the source's state with a snapshot taken by State.
func (s *Source) Restore(st State) {
	s.state = st.S
	s.gauss = st.Gauss
	s.hasGauss = st.HasGauss
}
