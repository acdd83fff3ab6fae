// Command lumosfleet runs a sharded, replicated serving fleet on one
// machine: the throughput map is partitioned across -shards shards by
// rendezvous hashing of its grid cells, each shard is served by
// -replicas supervised replicas on loopback TCP, and a failure-aware
// router fronts them on -listen.
//
// Usage:
//
//	lumosfleet -area Airport -listen :8460
//	lumosfleet -in airport.csv -shards 4 -replicas 3
//
// The router consistent-hashes /predict to the shard owning the
// query's map cell, probes replica health, breaks circuits on failing
// replicas, hedges slow attempts, and scatter-gathers /predict/batch
// and /cells.json with explicit partial results. /metrics serves the
// router's own fleet_* series plus a rollup of every replica's
// lumos_* series.
//
// With -chaos, POST /chaos/kill?replica=s0r0 hard-kills a replica
// (its connections reset, like kill -9; the supervisor restarts it
// with backoff) and POST /chaos/drain?shard=s2 removes a shard
// gracefully — the kill-a-shard demo in the README drives these while
// a probe loop shows zero dropped queries.
//
// On SIGINT/SIGTERM the router drains first (in-flight requests finish
// within -grace), then the shards shut down.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lumos5g"
	"lumos5g/internal/fleet"
	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
)

// withChaosEndpoints mounts the fault-injection controls the kill-a-
// shard demo drives: kill a replica (the supervisor restarts it with
// backoff) or drain a whole shard gracefully. Demo tooling — off
// unless -chaos is set.
func withChaosEndpoints(next http.Handler, fl *fleet.Fleet, grace time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/chaos/") {
			next.ServeHTTP(w, r)
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		switch r.URL.Path {
		case "/chaos/kill":
			id := r.URL.Query().Get("replica")
			if !fl.KillReplica(id) {
				http.Error(w, "unknown replica "+id, http.StatusNotFound)
				return
			}
			log.Printf("chaos: killed replica %s", id)
			fmt.Fprintf(w, "killed %s; the supervisor will restart it\n", id)
		case "/chaos/drain":
			id := r.URL.Query().Get("shard")
			dctx, cancel := context.WithTimeout(r.Context(), grace)
			defer cancel()
			if !fl.DrainShard(dctx, id) {
				http.Error(w, "unknown shard "+id, http.StatusNotFound)
				return
			}
			log.Printf("chaos: drained shard %s", id)
			fmt.Fprintf(w, "drained %s; its key range now routes to the remaining shards\n", id)
		default:
			http.NotFound(w, r)
		}
	})
}

func main() {
	in := flag.String("in", "", "dataset CSV (mutually exclusive with -area)")
	areaName := flag.String("area", "", "simulate this area instead of loading a CSV")
	passes := flag.Int("passes", 6, "walking passes when simulating")
	seed := flag.Uint64("seed", 1, "campaign/model seed")
	listen := flag.String("listen", "127.0.0.1:8460", "router listen address")
	minSamples := flag.Int("min", 3, "minimum samples per map cell")
	shards := flag.Int("shards", 3, "number of shards (map partitions)")
	replicas := flag.Int("replicas", 2, "replicas per shard")
	maxInFlight := flag.Int("max-inflight", 0, "per-replica in-flight request bound; excess is shed with 503 (0 = unbounded)")
	reqTimeout := flag.Duration("timeout", 10*time.Second, "per-request handler timeout on each replica")
	grace := flag.Duration("grace", 5*time.Second, "shutdown drain period")
	chaos := flag.Bool("chaos", false, "expose POST /chaos/kill?replica=ID and /chaos/drain?shard=ID fault-injection endpoints (demo only)")
	ingestOn := flag.Bool("ingest", false, "accept streamed samples on POST /ingest, routed to the owning shard; each replica refits on its own slice")
	refitInterval := flag.Duration("refit-interval", 30*time.Second, "how often each replica's refit loop retrains on its ingest window")
	refitGate := flag.Float64("refit-gate", 0.10, "holdout gate: reject a candidate whose MAE regresses past the live model by this fraction")
	refitWorkers := flag.Int("refit-workers", 0, "trainer parallelism for each replica's refits: bounds both the chain tiers trained at once and the loops inside each fit; 0 = one worker per CPU (fits are byte-identical for any count)")
	ingestCellCap := flag.Int("ingest-cell-cap", 0, "max window samples per grid cell on each replica, evicting oldest-in-cell (0 = unlimited)")
	flag.Parse()

	var d *lumos5g.Dataset
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		var rerr error
		d, rerr = lumos5g.ReadCSV(f)
		f.Close()
		if rerr != nil {
			log.Fatal(rerr)
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
		fmt.Fprintln(os.Stderr, "lumosfleet: one of -in or -area is required")
		os.Exit(2)
	}

	tm := lumos5g.BuildThroughputMap(d, *minSamples)
	chain, err := lumos5g.TrainCalibratedFallbackChain(d, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, lumos5g.Scale{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}

	opts := []mapserver.Option{mapserver.WithRequestTimeout(*reqTimeout)}
	if *maxInFlight > 0 {
		opts = append(opts, mapserver.WithMaxInFlight(*maxInFlight))
	}
	fcfg := fleet.FleetConfig{
		Shards:     *shards,
		Replicas:   *replicas,
		ServerOpts: opts,
		Seed:       *seed,
	}
	if *ingestOn {
		fcfg.Ingest = &ingest.Config{
			CellCap: *ingestCellCap,
			Refit: ingest.RefitConfig{
				Interval: *refitInterval,
				GateFrac: *refitGate,
				Seed:     *seed,
				Workers:  *refitWorkers,
			},
		}
	}
	fl, err := fleet.StartFleet(tm, chain, fcfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, sh := range fl.Topology().Shards {
		for _, rep := range sh.Replicas {
			log.Printf("shard %s replica %s at %s", sh.ID, rep.ID, rep.URL)
		}
	}
	log.Printf("fleet of %d shards x %d replicas serving %d map cells, model %s; router on http://%s",
		*shards, *replicas, len(tm.Cells), chain, *listen)
	if *ingestOn {
		log.Printf("ingest enabled: POST /ingest routes to owning shards; per-replica refit every %v, gate %.0f%%",
			*refitInterval, *refitGate*100)
	}

	var h http.Handler = fl.Router()
	if *chaos {
		h = withChaosEndpoints(h, fl, *grace)
		log.Printf("chaos endpoints enabled: POST /chaos/kill?replica=ID, POST /chaos/drain?shard=ID")
	}

	// The router drains first so no new work reaches the shards, then the
	// shards get the same grace budget to finish what they hold.
	err = mapserver.ListenAndServe(ctx, *listen, h, *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	fl.Shutdown(shutCtx)
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
