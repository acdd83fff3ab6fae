# Tier-1 verification and development targets.
#
# `make tier1` is the CI gate: gofmt (the trees `make fmt` formats),
# build, the serving fast-path selftest, vet, and the full test suite
# once under the race detector (the fault-injection and resilience tests
# exercise heavy goroutine churn, so they must stay race-clean). The
# race-* targets race-check one layer in
# isolation for a fast inner loop; tier1 does not repeat them, since
# `go test -race ./...` already runs every one of their packages. `make
# fuzz` runs the parser/artifact/wire fuzz targets for a short burst — not
# part of tier1, but run it after touching the CSV loader, the model
# artifact codec, the binary batch frames or the JSON request decoders.

GO ?= go
FUZZTIME ?= 5s

.PHONY: tier1 build vet test race race-core race-parallel race-fleet race-ingest race-load race-abr parity bench bench-json bench-serve bench-fleet bench-ingest bench-load bench-abr fmt fuzz

tier1: ## gofmt + build + selftest + vet + race-enabled test suite (run `make fuzz` too when touching parsers)
	test -z "$$(gofmt -l cmd internal examples *.go)"
	$(GO) build ./... && $(GO) build -o bin/lumosbench ./cmd/lumosbench && ./bin/lumosbench -selftest && $(GO) vet ./... && $(GO) test -race ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The packages the fault-injection and observability layers touch,
# race-checked in isolation (fast inner loop while working on
# netem/mapserver/obs).
race-core:
	$(GO) test -race ./internal/netem/... ./internal/mapserver/... ./internal/obs/...

# The deterministic-parallelism layer, race-checked in isolation (fast
# inner loop while working on the worker pipeline, the ML ensembles or
# the chain trainer in the root package, whose tiers train concurrently).
race-parallel:
	$(GO) test -race ./internal/sim/... ./internal/ml/... ./internal/rng/... ./internal/par/... .

# The sharded serving fleet's chaos suite, race-checked: replicas
# killed/stalled/drained mid-load while the router must keep answering.
race-fleet:
	$(GO) test -race ./internal/fleet/...

# The streaming-ingestion loop, race-checked: gate + bounded queue +
# refit-and-hot-swap under concurrent predict and upload traffic.
race-ingest:
	$(GO) test -race ./internal/ingest/... ./internal/mapserver/... ./internal/sim/...

# The scenario generator and load harness, race-checked: a thousand UE
# goroutines hammering an in-process fleet plus the generator's
# concurrency-independence property.
race-load:
	$(GO) test -race ./internal/cityscape/... ./internal/load/... ./internal/env/...

# The ABR simulator/controllers and the interval serving path they
# consume, race-checked: simulator correctness pins, interval ordering
# across fallback tiers, and the dual-flavor prediction cache.
race-abr:
	$(GO) test -race ./internal/abr/... ./internal/mapserver/... ./internal/fleet/... .

# The serial-vs-parallel parity audit: byte-identical campaigns, models
# and batch predictions across worker counts.
parity:
	$(GO) test -race -run 'Parallel|Parity|Refit|Batch|Split|CheckpointEncode' ./internal/sim/... ./internal/ml/... ./internal/rng/... ./internal/mapserver/... .

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Machine-readable serial-vs-parallel speedup report (generate / train /
# predict). The JSON records num_cpu and go_max_procs so speedups are
# auditable against the hardware they ran on.
bench-json:
	$(GO) run ./cmd/lumosbench -parbench BENCH_parallel.json

# Serving fast-path report: compiled-vs-interpreted inference kernels
# (tree and LSTM, each with a bit-identity check), /predict handler
# allocations cold vs cached vs server-only, the JSON and binary
# /predict/batch encodings, and the pre-PR handler baseline for the
# alloc comparison. The same parity and budget gates
# run without timing loops as `lumosbench -selftest`, wired into tier1.
bench-serve:
	$(GO) run ./cmd/lumosbench -servebench BENCH_serve.json

# Fleet routing report: QPS and p50/p99 through the router for 1 shard
# vs N shards, and with one replica hard-killed mid-run.
bench-fleet:
	$(GO) run ./cmd/lumosbench -fleetbench BENCH_fleet.json

# Continuous-learning loop report: sustained ingest admission rate
# (direct and over HTTP), shed rate at overload, refit/hot-swap cost,
# and /predict p99 while refits run.
bench-ingest:
	$(GO) run ./cmd/lumosbench -ingestbench BENCH_ingest.json

# Load-harness report: 1000 simulated UEs walking a generated city,
# paced open-loop against an in-process fleet; achieved QPS, per-route
# p50/p95/p99 and the SLO verdict land in BENCH_load.json. Run
# `lumosload -url ...` by hand against a live lumosmapd/lumosfleet.
bench-load:
	$(GO) run ./cmd/lumosload -local -ues 1000 -qps 200 -duration 8s -warmup 2s -ramp 2s -shards 1 -replicas 1 \
		-slo "/predict:50:250,/predict/batch:100:500,/ingest:100:500" -out BENCH_load.json

# ABR campaign report: five controllers (reactive rate-based and
# buffer-based, predictive on p50, interval-aware predictive on p10,
# oracle) stream UE traces from five city scenarios, with forecasts
# fetched live from a calibrated in-process fleet's /predict/batch.
bench-abr:
	$(GO) run ./cmd/lumosbench -abrbench BENCH_abr.json

# Short fuzz burst over every fuzz target (one -fuzz per package per
# invocation is a `go test` restriction).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/dataset
	$(GO) test -run='^$$' -fuzz=FuzzLoadPredictor -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzIngestSample -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz=FuzzCompiledParity -fuzztime=$(FUZZTIME) ./internal/ml/compiled
	$(GO) test -run='^$$' -fuzz=FuzzSimulate -fuzztime=$(FUZZTIME) ./internal/abr
	$(GO) test -run='^$$' -fuzz=FuzzRouteKey -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQueries -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeResults -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzParsePredict -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBatch -fuzztime=$(FUZZTIME) ./internal/wire

fmt:
	gofmt -w ./cmd ./internal ./examples *.go
