package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter: %d", c.Value())
	}
	g := r.NewGauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge: %v", g.Value())
	}
	r.NewGaugeFunc("gf", "callback gauge", func() float64 { return 7 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE c_total counter\nc_total 5\n",
		"# TYPE g gauge\ng 1.5\n",
		"# TYPE gf gauge\ngf 7\n",
		"# HELP c_total a counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRejectsBadAndDuplicateNames(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_total", "")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { r.NewCounter("ok_total", "") })
	mustPanic("leading digit", func() { r.NewCounter("0bad", "") })
	mustPanic("space", func() { r.NewCounter("sp ace", "") })
	mustPanic("empty", func() { r.NewCounter("", "") })
	mustPanic("zero labels", func() { r.NewCounterVec("v1_total", "") })
	mustPanic("bad label", func() { r.NewCounterVec("v2_total", "", "bad-label") })
}

func TestVectorsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("req_total", "requests", "route", "code")
	v.With("/predict", "200").Add(3)
	v.With("/predict", "400").Inc()
	v.With("/healthz", "200").Inc()
	if got := v.With("/predict", "200").Value(); got != 3 {
		t.Fatalf("child value: %d", got)
	}
	if got := v.Total(map[string]string{"route": "/predict"}); got != 4 {
		t.Fatalf("route total: %d", got)
	}
	if got := v.Total(map[string]string{"code": "200"}); got != 4 {
		t.Fatalf("code total: %d", got)
	}
	if got := v.Total(nil); got != 5 {
		t.Fatalf("grand total: %d", got)
	}
	if got := v.Total(map[string]string{"nosuch": "x"}); got != 0 {
		t.Fatalf("unknown label must match nothing: %d", got)
	}

	e := r.NewGaugeVec("weird", "", "name")
	e.With(`a"b\c` + "\n").Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `req_total{route="/predict",code="200"} 3`) {
		t.Fatalf("labeled sample missing:\n%s", out)
	}
	if !strings.Contains(out, `weird{name="a\"b\\c\n"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	// Deterministic series order within a family.
	first := strings.Index(out, `req_total{code=`)
	if first != -1 {
		t.Fatalf("unexpected label order:\n%s", out)
	}
	if i, j := strings.Index(out, `route="/healthz"`), strings.Index(out, `route="/predict"`); i < 0 || j < 0 || i > j {
		t.Fatalf("series not sorted:\n%s", out)
	}
}

func TestVectorConcurrentWith(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("c_total", "", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With("same").Inc()
			}
		}()
	}
	wg.Wait()
	if got := v.With("same").Value(); got != 8000 {
		t.Fatalf("concurrent increments lost: %d", got)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.05, 0.3, 0.7, 2.0} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 5 {
		t.Fatalf("count: %d", h.Count())
	}
	if math.Abs(h.Sum()-3.1) > 1e-12 {
		t.Fatalf("sum: %v", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="0.5"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 3.1`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVecSharesBounds(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("d_seconds", "", []float64{1, 2}, "route")
	hv.With("/a").Observe(0.5)
	hv.With("/b").Observe(1.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`d_seconds_bucket{route="/a",le="1"} 1`,
		`d_seconds_bucket{route="/b",le="1"} 0`,
		`d_seconds_bucket{route="/b",le="2"} 1`,
		`d_seconds_count{route="/a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramEdgeQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must yield NaN quantiles")
	}
	h.Observe(12)
	// A single observation pins every quantile to it (min==max).
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := h.Quantile(q); got != 12 {
			t.Fatalf("single-sample q%.2f: %v", q, got)
		}
	}
	h.Observe(28)
	if got := h.Quantile(0); got != 12 {
		t.Fatalf("q0 must be the observed min: %v", got)
	}
	if got := h.Quantile(1); got != 28 {
		t.Fatalf("q1 must be the observed max: %v", got)
	}
}

// NewHistogram registers and returns a histogram with the given upper
// bucket bounds (a +Inf overflow bucket is implicit).
func (r *Registry) NewHistogram(name, help string, upper []float64) *Histogram {
	h := newHistogram(upper)
	r.register(name, help, "histogram", h)
	return h
}
