package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"lumos5g"
	"lumos5g/internal/cityscape"
	"lumos5g/internal/env"
	"lumos5g/internal/sim"
)

// The -parbench mode proves out the deterministic worker-pool layer: it
// times the parallelised hot paths — campaign generation and the default
// fallback chain's training — serial versus parallel, verifies the
// outputs agree, and writes the numbers as machine-readable JSON. On a
// single-core machine the speedups hover around 1× (the report records
// num_cpu so that is auditable); correctness is asserted regardless.

// parBenchRuns is how many times each side of every entry is timed. The
// sides alternate which runs first and the report keeps each side's
// median, so one noisy run on a shared machine does not set a speedup.
const parBenchRuns = 7

// parBenchEntry is one serial-vs-parallel timing pair. The seconds are
// the median of Runs timings per side.
type parBenchEntry struct {
	Name               string  `json:"name"`
	Rows               int     `json:"rows"`
	Runs               int     `json:"runs"`
	SerialSeconds      float64 `json:"serial_seconds"`
	ParallelSeconds    float64 `json:"parallel_seconds"`
	Speedup            float64 `json:"speedup"`
	SerialRowsPerSec   float64 `json:"serial_rows_per_sec"`
	ParallelRowsPerSec float64 `json:"parallel_rows_per_sec"`
	// Identical reports that serial and parallel produced the same
	// result (bit-identical records / model predictions).
	Identical bool `json:"identical"`
}

// parBenchReport is the BENCH_parallel.json schema.
type parBenchReport struct {
	GeneratedAt string          `json:"generated_at"`
	NumCPU      int             `json:"num_cpu"`
	GoMaxProcs  int             `json:"go_max_procs"`
	Workers     int             `json:"workers"`
	Seed        uint64          `json:"seed"`
	Benchmarks  []parBenchEntry `json:"benchmarks"`
}

func entry(name string, rows int, serial, parallel time.Duration, identical bool) parBenchEntry {
	ss, ps := serial.Seconds(), parallel.Seconds()
	e := parBenchEntry{
		Name: name, Rows: rows, Runs: parBenchRuns,
		SerialSeconds: ss, ParallelSeconds: ps,
		Identical: identical,
	}
	if ps > 0 {
		e.Speedup = ss / ps
		e.ParallelRowsPerSec = float64(rows) / ps
	}
	if ss > 0 {
		e.SerialRowsPerSec = float64(rows) / ss
	}
	return e
}

// medianPair times serial and parallel parBenchRuns times each,
// alternating which side runs first, and returns each side's median.
func medianPair(serial, parallel func() error) (time.Duration, time.Duration, error) {
	sides := [2]struct {
		run   func() error
		times []time.Duration
	}{{run: serial}, {run: parallel}}
	for i := 0; i < parBenchRuns; i++ {
		for j := 0; j < 2; j++ {
			s := &sides[(i+j)%2]
			start := time.Now()
			if err := s.run(); err != nil {
				return 0, 0, err
			}
			s.times = append(s.times, time.Since(start))
		}
	}
	median := func(ts []time.Duration) time.Duration {
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		return ts[len(ts)/2]
	}
	return median(sides[0].times), median(sides[1].times), nil
}

// runParBench runs the speedup benchmarks and writes the JSON report to
// path.
func runParBench(path string, workers int, seed uint64) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := parBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		Seed:        seed,
	}

	// Generate: full three-area campaign, serial loop vs worker pipeline.
	cfg := lumos5g.SmallCampaign()
	cfg.Seed = seed
	var serialD, parD *lumos5g.Dataset
	serialGen, parGen, err := medianPair(
		func() error { serialD = sim.RunCampaign(cfg); return nil },
		func() error { parD = sim.RunCampaignParallel(cfg, nil, workers); return nil })
	if err != nil {
		return err
	}
	// Compare via CSV bytes: records carry NaN panel features on the
	// unsurveyed area, and NaN != NaN under struct equality.
	var sb, pb bytes.Buffer
	if err := serialD.WriteCSV(&sb); err != nil {
		return err
	}
	if err := parD.WriteCSV(&pb); err != nil {
		return err
	}
	genSame := bytes.Equal(sb.Bytes(), pb.Bytes())
	rep.Benchmarks = append(rep.Benchmarks,
		entry("generate", len(serialD.Records), serialGen, parGen, genSame))

	// Train chain: the default chain the daemons serve (calibrated GDBT
	// tiers L+M+C → L+M → L over the default generated city), with one
	// worker vs the pool. The worker count bounds how many tiers train at
	// once (each fit runs on its tier's goroutine); the chains must save
	// to the same bytes.
	city := cityscape.Generate(cityscape.Config{Seed: seed})
	citySc := city.Mixed(24, seed)
	cityD, _ := lumos5g.CleanDataset(sim.RunCampaignParallel(citySc.Sim, []*env.Area{citySc.Area}, workers))
	// trainChain trains with w workers and leaves the saved bytes in *out.
	trainChain := func(w int, out *[]byte) func() error {
		return func() error {
			sc := lumos5g.Scale{Seed: seed, Workers: w}
			c, err := lumos5g.TrainCalibratedFallbackChain(cityD, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, sc)
			if err != nil {
				return fmt.Errorf("parbench: train chain (workers %d): %w", w, err)
			}
			var buf bytes.Buffer
			if err := c.Save(&buf); err != nil {
				return fmt.Errorf("parbench: save chain (workers %d): %w", w, err)
			}
			*out = buf.Bytes()
			return nil
		}
	}
	var serialChain, parChain []byte
	serialChainT, parChainT, err := medianPair(trainChain(1, &serialChain), trainChain(workers, &parChain))
	if err != nil {
		return err
	}
	rep.Benchmarks = append(rep.Benchmarks,
		entry("train_chain", cityD.Len(), serialChainT, parChainT, bytes.Equal(serialChain, parChain)))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, b := range rep.Benchmarks {
		fmt.Printf("%-11s %7d rows  serial %6.3fs  parallel %6.3fs  speedup %.2fx  identical=%t\n",
			b.Name, b.Rows, b.SerialSeconds, b.ParallelSeconds, b.Speedup, b.Identical)
	}
	fmt.Printf("wrote %s (medians of %d runs per side, workers=%d, cpus=%d)\n", path, parBenchRuns, workers, rep.NumCPU)
	for _, b := range rep.Benchmarks {
		if !b.Identical {
			return fmt.Errorf("parbench: %s diverged between serial and parallel", b.Name)
		}
	}
	return nil
}
