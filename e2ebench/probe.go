package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// scrape is one /metrics exposition: series (name plus labels, as
// printed) to value.
type scrape map[string]float64

func scrapeMetrics(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// parseExposition reads Prometheus text exposition into a scrape.
func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of metric name whose labels include each of
// the given `key="value"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range s {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after − before for one summed metric.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// procSample is the process-wide counters read at phase boundaries.
type procSample struct {
	mallocs     uint64
	gcCPU       float64 // runtime/metrics, cpu-seconds
	availCPU    float64 // GOMAXPROCS × wall time, cpu-seconds
	rusageCPUus float64 // user + system, microseconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return procSample{
		mallocs:     ms.Mallocs,
		gcCPU:       s[0].Value.Float64(),
		availCPU:    s[1].Value.Float64(),
		rusageCPUus: tv(ru.Utime) + tv(ru.Stime),
	}
}

// procDelta accumulates process counters over the timed phases.
type procDelta struct {
	mallocs  float64
	gcCPU    float64
	availCPU float64
	cpuUs    float64
}

func (d *procDelta) add(before, after procSample) {
	d.mallocs += float64(after.mallocs - before.mallocs)
	d.gcCPU += after.gcCPU - before.gcCPU
	d.availCPU += after.availCPU - before.availCPU
	d.cpuUs += after.rusageCPUus - before.rusageCPUus
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memWriter is a reusable in-memory http.ResponseWriter for the traced
// replay, so the benchmark's own recorder adds as little as possible to
// the layer it times.
type memWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{hdr: http.Header{}} }

func (w *memWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf.Reset()
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}

// mallocsDuring counts heap allocations made while f runs.
func mallocsDuring(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
