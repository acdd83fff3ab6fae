// Command e2ebench is the repository's end-to-end benchmark. It runs
// one closed-loop workload against the real serving stack in one
// process, checks every answer, and prints the end-to-end metrics; with
// --trace 1 it also replays a sample of the workload's own requests one
// at a time down the ladder of public calls (client round trip →
// fleet.Router → mapserver.Server → engine → lumos5g.FallbackChain →
// the serving tier's compiled predictor, plus internal/wire and
// internal/ingest where the workload uses them) and prints each layer's
// self time.
//
// Run it from the repository root through its launcher, which builds it
// from source first:
//
//	bash e2ebench/run.sh --workload ue_walk --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	ue_walk         GET /predict?intervals=1 for every second of a 48-UE
//	                held-out campaign, through a 2-shard fleet router.
//	                One row per request: transport, router hop and the
//	                replica prediction cache dominate.
//	trace_forecast  POST /predict/batch binary frames, one UE's next 256
//	                seconds each, through the same fleet: the ABR
//	                lookahead call. Bypasses the cache; engine, chain and
//	                compiled kernel dominate.
//	outage_refit    a tower-outage stream against one mapserver with an
//	                ingestor: per round, JSON /predict/batch forecasts,
//	                POST /ingest of the truth, Ingestor.RefitNow. Reads
//	                beside writes, and quality under distribution shift.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// full report (provenance, input properties, every metric with its
// sample size, per-round and ladder diagnostics). Traced runs also
// write their spans to .bench_build/spans/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics every untraced run prints on its last
// line; BENCHMARK.json bounds exactly these. Each is non-zero on every
// workload and repeats within its bound on a shared 2-vCPU VM. The
// report carries the rest of the end-to-end set: failed_ratio (zero on
// a healthy run), learn_s (outage_refit only), coverage_gap (near zero
// where the band is calibrated), and rows_per_s and latency_p99_ms.
// Those two follow the latency tail, which host CPU steal and garbage
// collection set there: across ten seeds their interquartile spread
// reached 0.47 and 0.55 of the median, too wide for any regression
// bound, while the median latency's stayed within 0.20.
var endToEnd = []string{
	"setup_s", "latency_p50_ms",
	"mae_mbps", "interval_score_mbps", "peak_rss_mb",
}

// perLayer lists the metrics every traced run prints on its last line.
// Each layer does work on every workload; layers only some workloads
// reach (fleet.self_us, wire.*, ingest.self_ns_per_sample, ...) are in
// the report of the workloads that reach them.
var perLayer = []string{
	"sim.campaign_s", "lumos5g.map_s", "lumos5g.train_s", "server.start_s",
	"transport.self_us", "mapserver.self_us", "mapserver.allocs_per_req", "mapserver.cache_hit_ratio",
	"engine.self_ns_per_row", "engine.allocs_per_row",
	"lumos5g.chain_self_ns_per_row", "lumos5g.tier_share.LM", "lumos5g.tier_share.L",
	"compiled.kernel_ns_per_row",
	"fleet.attempts_per_req", "fleet.hedges_per_req", "fleet.failovers_per_req",
	"ingest.accepted_ratio", "ingest.swap_ratio",
	"runtime.allocs_per_row", "runtime.gc_cpu_fraction", "process.cpu_us_per_row",
	"trace.roundtrip_p50_ms", "trace.negative_layers",
}

var units = map[string]string{
	"setup_s": "s", "rows_per_s": "rows/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
	"failed_ratio": "ratio", "mae_mbps": "Mbps", "coverage_gap": "ratio",
	"interval_score_mbps": "Mbps", "peak_rss_mb": "MB", "learn_s": "s",

	"sim.campaign_s": "s", "lumos5g.map_s": "s", "lumos5g.train_s": "s", "server.start_s": "s",
	"fleet.start_s": "s", "mapserver.start_s": "s",
	"transport.self_us": "us", "fleet.self_us": "us", "mapserver.self_us": "us",
	"mapserver.allocs_per_req": "allocs/req", "mapserver.cache_hit_ratio": "ratio",
	"wire.decode_queries_ns_per_row": "ns/row", "wire.encode_results_ns_per_row": "ns/row",
	"wire.decode_results_ns_per_row": "ns/row",
	"engine.self_ns_per_row":         "ns/row", "engine.allocs_per_row": "allocs/row",
	"lumos5g.chain_self_ns_per_row": "ns/row", "lumos5g.tier_share.LM": "ratio",
	"lumos5g.tier_share.L": "ratio", "compiled.kernel_ns_per_row": "ns/row",
	"fleet.attempts_per_req": "1/req", "fleet.hedges_per_req": "1/req", "fleet.failovers_per_req": "1/req",
	"ingest.self_ns_per_sample": "ns/sample", "ingest.accepted_ratio": "ratio",
	"ingest.refit_s": "s", "ingest.swap_ratio": "ratio",
	"runtime.allocs_per_row": "allocs/row", "runtime.gc_cpu_fraction": "ratio",
	"process.cpu_us_per_row": "us/row",
	"trace.roundtrip_p50_ms": "ms", "trace.negative_layers": "count", "trace.ladder_closure": "ratio",
	"trace.cache_hits_observed_diff": "count",
}

func main() {
	workload := flag.String("workload", "", "ue_walk, trace_forecast or outage_refit")
	seed := flag.Uint64("seed", 1, "traffic seed: the same seed gives the same requests")
	seconds := flag.Float64("seconds", 10, "length of the timed closed-loop phase")
	trace := flag.Int("trace", 0, "1 = also replay a sample down the layer ladder and print per-layer metrics")
	flag.Parse()

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var run func(runConfig) (*runOut, error)
	switch cfg.workload {
	case "ue_walk":
		run = runUEWalk
	case "trace_forecast":
		run = runTraceForecast
	case "outage_refit":
		run = runOutageRefit
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown --workload %q (ue_walk, trace_forecast, outage_refit)\n", cfg.workload)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep, res, err := compose(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: write spans:", err)
			os.Exit(1)
		}
		rep.SpansFile = path
	}
	// A metric that came out NaN or infinite has no JSON form; that is a
	// broken measurement, reported as a failed run.
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: report:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: result:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", body, line)
	if !res.Correct {
		os.Exit(1)
	}
}

// report is everything printed before the result line.
type report struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Inputs     map[string]any    `json:"inputs"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	Latency    []tail            `json:"latency_ms"`
	Quality    quality           `json:"quality"`
	Parity     parity            `json:"parity"`
	FirstError string            `json:"first_error,omitempty"`
	Rounds     []roundDiag       `json:"rounds,omitempty"`
	Layers     map[string]metric `json:"layers,omitempty"`
	Ladder     *ladder           `json:"ladder,omitempty"`
	Overhead   *overhead         `json:"tracing_overhead,omitempty"`
	SpansFile  string            `json:"spans_file,omitempty"`
}

// overhead sets the traced replay's client round trip beside the
// untraced phase's latency of the same run. The replay sends one
// request at a time while the timed phase runs `clients` callers, so
// the ratio is the cost of tracing together with that of the missing
// contention.
type overhead struct {
	TracedRoundTripP50Ms float64 `json:"traced_roundtrip_p50_ms"`
	UntracedLatencyP50Ms float64 `json:"untraced_latency_p50_ms"`
	Ratio                float64 `json:"ratio"`
}

type provenance struct {
	Commit          string `json:"commit"`
	SourceSHA256    string `json:"source_sha256"`
	GoVersion       string `json:"go_version"`
	NumCPU          int    `json:"num_cpu"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Seed            uint64 `json:"seed"`
	ModelSeed       int    `json:"model_seed"`
	City            string `json:"city"`
	CityFingerprint string `json:"cityscape_fingerprint"`
	Model           string `json:"model"`
	TrainRows       int    `json:"train_rows"`
	Clients         int    `json:"clients"`
	SetupRepeats    int    `json:"setup_repeats"`
}

func compose(cfg runConfig, out *runOut) (report, result, error) {
	all := out.other
	all.add(out.timed.tally)
	rep := report{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Provenance: provenance{
			Commit: commit(), SourceSHA256: sourceHash(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed,
			ModelSeed: modelSeed, City: out.model.city.Config.Name,
			CityFingerprint: fmt.Sprintf("%016x", out.model.city.Fingerprint()),
			Model:           out.model.chain.String(), TrainRows: out.model.data.Len(),
			Clients: clients, SetupRepeats: setupRepeats,
		},
		Inputs:   out.inputs,
		EndToEnd: map[string]metric{},
		Quality:  out.qual,
		Parity:   out.parity,
		Rounds:   out.rounds,
		Ladder:   out.ladder,
	}
	if all.firstErr != nil {
		rep.FirstError = all.firstErr.Error()
	}
	lat := out.timed.lat
	if len(lat) == 0 || out.timed.elapsed <= 0 {
		return rep, result{}, fmt.Errorf("timed phase sent no requests")
	}
	ms := make([]float64, len(lat))
	for i, v := range lat {
		ms[i] = v * 1e3
	}
	p50 := tailOf(ms, 0.50)
	rep.Latency = []tail{p50, tailOf(ms, 0.90), tailOf(ms, 0.95)}
	e2e := map[string]float64{
		"setup_s":             out.setup.total,
		"rows_per_s":          float64(out.timed.rows) / out.timed.elapsed,
		"latency_p50_ms":      p50.Value,
		"failed_ratio":        float64(all.failed) / float64(all.attempted),
		"mae_mbps":            out.qual.MAE,
		"coverage_gap":        out.qual.CoverageGap,
		"interval_score_mbps": out.qual.IntervalScore,
		"peak_rss_mb":         peakRSSMB(),
	}
	out.checkpoint("end")
	out.inputs["peak_rss_mb_by_phase"] = out.rssAt
	// A tail is reported only where at least ten samples lie beyond it.
	for _, q := range []float64{0.99, 0.999} {
		if t := tailOf(ms, q); t.Beyond >= 10 {
			rep.Latency = append(rep.Latency, t)
			if q == 0.99 {
				e2e["latency_p99_ms"] = t.Value
			}
		}
	}
	if cfg.workload == "outage_refit" {
		e2e["learn_s"] = out.learnS
	}
	for k, v := range e2e {
		rep.EndToEnd[k] = metric{Value: v, Unit: units[k]}
	}
	res := result{
		Correct:   all.failed == 0 && out.parity.Mismatched == 0 && out.qual.N > 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	if !cfg.trace {
		for _, k := range endToEnd {
			res.Metrics[k] = rep.EndToEnd[k]
		}
		return rep, res, nil
	}

	layers := map[string]float64{
		"sim.campaign_s":  out.setup.campaign,
		"lumos5g.map_s":   out.setup.mapBuild,
		"lumos5g.train_s": out.setup.train,
		"server.start_s":  out.setup.start,
	}
	if cfg.workload == "outage_refit" {
		layers["mapserver.start_s"] = out.setup.start
	} else {
		layers["fleet.start_s"] = out.setup.start
	}
	for k, v := range out.layers {
		layers[k] = v
	}
	ct := out.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	reqs := float64(out.timed.attempted)
	rows := float64(out.timed.rows)
	layers["mapserver.cache_hit_ratio"] = ratio(ct["cache_hits"], ct["cache_hits"]+ct["cache_misses"]+ct["cache_uncached"])
	layers["lumos5g.tier_share.LM"] = ratio(ct["served_LM"], ct["served_all"])
	layers["lumos5g.tier_share.L"] = ratio(ct["served_L"], ct["served_all"])
	layers["fleet.attempts_per_req"] = ratio(ct["attempts"], reqs)
	layers["fleet.hedges_per_req"] = ratio(ct["hedges"], reqs)
	layers["fleet.failovers_per_req"] = ratio(ct["failovers"], reqs)
	layers["ingest.accepted_ratio"] = ratio(ct["ingest_accepted"], ct["ingest_posted"])
	layers["ingest.swap_ratio"] = ratio(ct["refits_accepted"], ct["refits"])
	layers["runtime.allocs_per_row"] = ratio(out.proc.mallocs, rows)
	layers["runtime.gc_cpu_fraction"] = ratio(out.proc.gcCPU, out.proc.availCPU)
	layers["process.cpu_us_per_row"] = ratio(out.proc.cpuUs, rows)
	rep.Layers = map[string]metric{}
	for k, v := range layers {
		rep.Layers[k] = metric{Value: v, Unit: units[k]}
	}
	if out.ladder != nil {
		traced := out.ladder.RoundTripP50 * 1e3
		rep.Overhead = &overhead{TracedRoundTripP50Ms: traced, UntracedLatencyP50Ms: p50.Value, Ratio: traced / p50.Value}
	}
	for _, k := range perLayer {
		m, ok := rep.Layers[k]
		if !ok {
			return rep, res, fmt.Errorf("per-layer metric %s was not measured", k)
		}
		res.Metrics[k] = m
	}
	return rep, res, nil
}

// commit is the VCS revision stamped into the binary, when the build
// ran inside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceHash fingerprints the Go sources of the checkout the benchmark
// runs in, so results from a checkout without git history still name
// the code they measured.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
