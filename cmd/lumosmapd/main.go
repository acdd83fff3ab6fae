// Command lumosmapd serves a 5G throughput map and its companion ML
// model over HTTP — the paper's Fig 4 scenario: apps fetch the map for
// their surroundings, download the model, and query predictions.
//
// Usage:
//
//	lumosmapd -in airport.csv -listen :8457
//	lumosmapd -area Airport -passes 6 -listen :8457   # simulate instead
//	lumosmapd -area Airport -nomodel                  # degraded: map only
//	lumosmapd -in airport.csv -model chain.l5g -watch 5s
//
// Routes: /healthz, /metrics, /map.svg, /cells.json, /model, /predict?lat=..&lon=..&speed=..&bearing=..
// With -ingest, POST /ingest accepts batched per-second samples from UEs
// in the field; a gated refit loop periodically retrains the chain on
// the accepted window and hot-swaps it only when a holdout check shows
// no regression (-refit-interval, -refit-gate).
//
// The model is a fallback chain (L+M+C → L+M → L → harmonic mean): a
// query missing kinematics or history is demoted to the best tier its
// features support instead of being rejected. With -model the chain is
// loaded from a saved artifact, and -watch hot-reloads it whenever the
// file changes — corrupt artifacts are rejected and the live model keeps
// serving.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for -grace before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only with -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"lumos5g"
	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
)

func main() {
	in := flag.String("in", "", "dataset CSV (mutually exclusive with -area)")
	areaName := flag.String("area", "", "simulate this area instead of loading a CSV")
	passes := flag.Int("passes", 6, "walking passes when simulating")
	seed := flag.Uint64("seed", 1, "campaign/model seed")
	listen := flag.String("listen", "127.0.0.1:8457", "listen address")
	minSamples := flag.Int("min", 3, "minimum samples per map cell")
	noModel := flag.Bool("nomodel", false, "serve the map without a predictor (degraded mode)")
	modelPath := flag.String("model", "", "load the model from a saved artifact instead of training")
	watch := flag.Duration("watch", 0, "poll -model for changes and hot-reload (0 disables)")
	reqTimeout := flag.Duration("timeout", 10*time.Second, "per-request handler timeout")
	maxInFlight := flag.Int("max-inflight", 0, "in-flight request bound; excess is shed with 503 + Retry-After (0 = unbounded)")
	metrics := flag.Bool("metrics", true, "serve Prometheus text metrics on /metrics")
	logRequests := flag.Bool("log-requests", false, "write one JSON access-log line per request to stderr")
	grace := flag.Duration("grace", 5*time.Second, "shutdown drain period")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; off by default)")
	ingestOn := flag.Bool("ingest", false, "accept streamed samples on POST /ingest and refit the model on them")
	ingestQueue := flag.Int("ingest-queue", 4096, "bounded ingest queue size; full queues shed with 429 + Retry-After")
	refitInterval := flag.Duration("refit-interval", 30*time.Second, "how often the refit loop retrains on the ingest window")
	refitGate := flag.Float64("refit-gate", 0.10, "holdout gate: reject a candidate whose MAE regresses past the live model by this fraction")
	refitMin := flag.Int("refit-min", 200, "window samples required before a refit fires")
	refitArtifact := flag.String("refit-artifact", "", "promote accepted refit generations to this artifact path (empty = in-memory only)")
	refitWorkers := flag.Int("refit-workers", 0, "trainer parallelism for refits: bounds both the chain tiers trained at once and the loops inside each fit; 0 = one worker per CPU (fits are byte-identical for any count)")
	ingestCellCap := flag.Int("ingest-cell-cap", 0, "max window samples per grid cell, evicting oldest-in-cell — keeps a parked UE from dominating refits (0 = unlimited)")
	flag.Parse()

	if *watch > 0 && *modelPath == "" {
		fmt.Fprintln(os.Stderr, "lumosmapd: -watch requires -model")
		os.Exit(2)
	}

	var d *lumos5g.Dataset
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		d, err = lumos5g.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *areaName != "":
		area, err := lumos5g.AreaByName(*areaName)
		if err != nil {
			log.Fatal(err)
		}
		cfg := lumos5g.CampaignConfig{Seed: *seed, WalkPasses: *passes, BackgroundUEProb: 0.12}
		raw := lumos5g.GenerateArea(area, cfg)
		d, _ = lumos5g.CleanDataset(raw)
	default:
		fmt.Fprintln(os.Stderr, "lumosmapd: one of -in or -area is required")
		os.Exit(2)
	}

	tm := lumos5g.BuildThroughputMap(d, *minSamples)
	var chain *lumos5g.FallbackChain
	switch {
	case *noModel:
	case *modelPath != "":
		// A missing file is fine under -watch: the watcher installs the
		// model once the artifact appears.
		c, err := lumos5g.LoadAnyModelFile(*modelPath, lumos5g.HarmonicMeanThroughput(d))
		switch {
		case err == nil:
			chain = c
		case *watch > 0 && os.IsNotExist(err):
			log.Printf("model %s not there yet; waiting for the watcher", *modelPath)
		default:
			log.Fatal(err)
		}
	default:
		var err error
		chain, err = lumos5g.TrainCalibratedFallbackChain(d, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, lumos5g.Scale{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
	}
	opts := []mapserver.Option{
		mapserver.WithRequestTimeout(*reqTimeout),
		mapserver.WithMetricsRoute(*metrics),
		mapserver.WithMaxInFlight(*maxInFlight),
	}
	if *logRequests {
		opts = append(opts, mapserver.WithRequestLog(os.Stderr))
	}
	srv, err := mapserver.NewWithChain(tm, chain, opts...)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The profiler listens on its own (normally loopback-only) address so
	// the serving port never exposes /debug/pprof.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	if *watch > 0 {
		stopWatch := srv.StartModelWatch(*modelPath, *watch, func(err error) {
			if err != nil {
				log.Printf("model reload rejected: %v", err)
			} else {
				log.Printf("model reloaded from %s: %s", *modelPath, srv.Chain())
			}
		})
		// Join the watcher goroutine on shutdown so the drain leaves
		// nothing running behind the process's back.
		defer stopWatch()
	}

	if *ingestOn {
		ing := ingest.New(srv.Metrics(), ingest.Config{
			QueueSize: *ingestQueue,
			CellCap:   *ingestCellCap,
			Refit: ingest.RefitConfig{
				Interval:     *refitInterval,
				GateFrac:     *refitGate,
				MinSamples:   *refitMin,
				Seed:         *seed,
				ArtifactPath: *refitArtifact,
				Workers:      *refitWorkers,
			},
		})
		srv.AttachIngestor(ing)
		stopRefit := ing.Start(srv, func(res ingest.RefitResult, err error) {
			if res.Swapped {
				log.Printf("refit accepted on %d samples (live MAE %.2f -> candidate %.2f); model hot-swapped: %s",
					res.Samples, res.LiveMAE, res.CandMAE, srv.Chain())
			} else {
				log.Printf("refit rejected (%s), old model kept: %v", res.Reason, err)
			}
		})
		defer stopRefit()
		log.Printf("ingest enabled: POST /ingest (queue %d, refit every %v, gate %.0f%%)",
			*ingestQueue, *refitInterval, *refitGate*100)
	}

	if chain != nil {
		log.Printf("serving %d map cells, model %s on http://%s", len(tm.Cells), chain, *listen)
	} else {
		log.Printf("serving %d map cells DEGRADED (no model) on http://%s", len(tm.Cells), *listen)
	}
	if err := mapserver.ListenAndServe(ctx, *listen, srv, *grace); err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
