package compiled_test

import (
	"testing"

	"lumos5g/internal/ml/gbdt"
)

func benchModel(b *testing.B) (*gbdt.Model, [][]float64) {
	X, y := synthData(3000, 10, 1)
	m := gbdt.New(gbdt.Config{Estimators: 60, MaxDepth: 6, Seed: 7})
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return m, X
}

func BenchmarkInterpretedBatch(b *testing.B) {
	m, X := benchModel(b)
	out := make([]float64, len(X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range X {
			out[j] = m.Predict(x)
		}
	}
	_ = out
}

func BenchmarkCompiledBatch(b *testing.B) {
	m, X := benchModel(b)
	e := m.Compiled()
	out := make([]float64, len(X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PredictInto(X, out, 0, len(X))
	}
	_ = out
}

func BenchmarkInterpretedSingle(b *testing.B) {
	m, X := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%len(X)])
	}
}

func BenchmarkCompiledSingle(b *testing.B) {
	m, X := benchModel(b)
	e := m.Compiled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Predict(X[i%len(X)])
	}
}

// TestKernelZeroAllocs pins the hot kernels at zero allocations per
// call in steady state (the batch scratch pool is primed by the first
// call), so a layout change that re-introduces per-call garbage fails
// tests instead of only moving BENCH_serve.json numbers. It covers both
// quantized batch kernels: depth-6 trees (at most 64 leaves) select the
// bitmask kernel, depth-8 trees grown to single-row leaves the banked
// walk.
func TestKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so pool misses refill scratch via New")
	}
	X, y := synthData(512, 10, 1)
	for _, c := range []struct {
		kernel string
		cfg    gbdt.Config
	}{
		{"bitmask", gbdt.Config{Estimators: 60, MaxDepth: 6, Seed: 7}},
		{"banked", gbdt.Config{Estimators: 20, MaxDepth: 8, MinLeaf: 1, Seed: 7}},
	} {
		m := gbdt.New(c.cfg)
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		e := m.Compiled()
		if e.Kernel() != c.kernel {
			t.Fatalf("depth-%d fixture selected the %s kernel, want %s", c.cfg.MaxDepth, e.Kernel(), c.kernel)
		}
		out := make([]float64, len(X))
		e.PredictInto(X, out, 0, len(X)) // prime the scratch pool
		if n := testing.AllocsPerRun(50, func() {
			e.PredictInto(X, out, 0, len(X))
		}); n != 0 {
			t.Fatalf("%s batch kernel allocates %v times per call, want 0", c.kernel, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			e.Predict(X[0])
		}); n != 0 {
			t.Fatalf("single-query kernel allocates %v times per call, want 0", n)
		}
	}
}
