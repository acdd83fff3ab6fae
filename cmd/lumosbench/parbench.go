package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"lumos5g"
	"lumos5g/internal/cityscape"
	"lumos5g/internal/env"
	"lumos5g/internal/features"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/sim"
)

// The -parbench mode proves out the deterministic worker-pool layer: it
// times the parallelised hot paths — campaign generation, one GBDT fit,
// the default fallback chain's training, batch prediction — serial
// versus parallel, verifies the outputs agree, and writes the numbers
// as machine-readable JSON. On a single-core machine the speedups hover
// around 1× (the report records num_cpu so that is auditable);
// correctness is asserted regardless.

// parBenchEntry is one serial-vs-parallel timing pair.
type parBenchEntry struct {
	Name               string  `json:"name"`
	Rows               int     `json:"rows"`
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
		Name: name, Rows: rows,
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
	start := time.Now()
	serialD := sim.RunCampaign(cfg)
	serialGen := time.Since(start)
	start = time.Now()
	parD := sim.RunCampaignParallel(cfg, nil, workers)
	parGen := time.Since(start)
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

	// Train: GBDT on the cleaned campaign's L+M feature matrix, one
	// worker vs the pool. Fitted models must predict identically.
	clean, _ := serialD.QualityFilter()
	mat := features.Build(clean, features.GroupLM)
	gcfg := gbdt.Config{Estimators: 60, MaxDepth: 6, Seed: seed}
	gcfg.Workers = 1
	serialM := gbdt.New(gcfg)
	start = time.Now()
	if err := serialM.Fit(mat.X, mat.Y); err != nil {
		return fmt.Errorf("parbench: serial fit: %w", err)
	}
	serialFit := time.Since(start)
	gcfg.Workers = workers
	parM := gbdt.New(gcfg)
	start = time.Now()
	if err := parM.Fit(mat.X, mat.Y); err != nil {
		return fmt.Errorf("parbench: parallel fit: %w", err)
	}
	parFit := time.Since(start)
	fitSame := true
	for i := 0; fitSame && i < len(mat.X); i++ {
		fitSame = serialM.Predict(mat.X[i]) == parM.Predict(mat.X[i])
	}
	rep.Benchmarks = append(rep.Benchmarks,
		entry("train", len(mat.X), serialFit, parFit, fitSame))

	// Train chain: the default chain the daemons serve (calibrated GDBT
	// tiers L+M+C → L+M → L over the default generated city), with one
	// worker vs the pool. The worker count bounds both how many tiers
	// train at once and the loops inside each fit; the chains must save
	// to the same bytes.
	city := cityscape.Generate(cityscape.Config{Seed: seed})
	citySc := city.Mixed(24, seed)
	cityD, _ := lumos5g.CleanDataset(sim.RunCampaignParallel(citySc.Sim, []*env.Area{citySc.Area}, workers))
	trainChain := func(w int) ([]byte, time.Duration, error) {
		sc := lumos5g.Scale{Seed: seed}
		sc.GBDT.Workers = w
		start := time.Now()
		c, err := lumos5g.TrainCalibratedFallbackChain(cityD, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, sc)
		took := time.Since(start)
		if err != nil {
			return nil, 0, fmt.Errorf("parbench: train chain (workers %d): %w", w, err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			return nil, 0, fmt.Errorf("parbench: save chain (workers %d): %w", w, err)
		}
		return buf.Bytes(), took, nil
	}
	serialChain, serialChainT, err := trainChain(1)
	if err != nil {
		return err
	}
	parChain, parChainT, err := trainChain(workers)
	if err != nil {
		return err
	}
	rep.Benchmarks = append(rep.Benchmarks,
		entry("train_chain", cityD.Len(), serialChainT, parChainT, bytes.Equal(serialChain, parChain)))

	// Predict: per-row Predict loop vs PredictBatch on the same model.
	start = time.Now()
	serialPred := make([]float64, len(mat.X))
	for i, x := range mat.X {
		serialPred[i] = parM.Predict(x)
	}
	serialBatch := time.Since(start)
	start = time.Now()
	parPred := parM.PredictBatch(mat.X)
	parBatch := time.Since(start)
	predSame := len(serialPred) == len(parPred)
	for i := 0; predSame && i < len(serialPred); i++ {
		predSame = serialPred[i] == parPred[i]
	}
	rep.Benchmarks = append(rep.Benchmarks,
		entry("predict", len(mat.X), serialBatch, parBatch, predSame))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, b := range rep.Benchmarks {
		fmt.Printf("%-11s %7d rows  serial %6.2fs  parallel %6.2fs  speedup %.2fx  identical=%t\n",
			b.Name, b.Rows, b.SerialSeconds, b.ParallelSeconds, b.Speedup, b.Identical)
	}
	fmt.Printf("wrote %s (workers=%d, cpus=%d)\n", path, workers, rep.NumCPU)
	for _, b := range rep.Benchmarks {
		if !b.Identical {
			return fmt.Errorf("parbench: %s diverged between serial and parallel", b.Name)
		}
	}
	return nil
}
