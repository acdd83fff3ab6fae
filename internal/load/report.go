package load

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"lumos5g/internal/cityscape"
	"lumos5g/internal/stats"
)

// RouteReport is one route's measured-window results.
type RouteReport struct {
	Route    string  `json:"route"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Shed     int     `json:"shed"` // 429/503 refusals: in Requests, not in the quantiles
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	// SLOPass is nil when no SLO was set for the route.
	SLOPass *bool  `json:"slo_pass,omitempty"`
	SLOWhy  string `json:"slo_why,omitempty"`
}

// Report is the JSON artifact a load run writes (BENCH_load.json),
// following the repo's lumosbench conventions.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"go_max_procs"`
	Seed        uint64 `json:"seed"`

	City        string  `json:"city"`
	CityTowers  int     `json:"city_towers"`
	UEs         int     `json:"ues"`
	Mode        string  `json:"mode"` // "open" or "closed"
	TargetQPS   float64 `json:"target_qps,omitempty"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationSec float64 `json:"duration_sec"`

	Routes []RouteReport `json:"routes"`

	// SLOVerdict is "pass", "fail", or "none" (no SLOs configured).
	SLOVerdict string `json:"slo_verdict"`
}

func buildReport(cfg Config, city *cityscape.City, ues []*ue, open bool, measured time.Duration) *Report {
	lat := map[string][]float64{}
	errs := map[string]int{}
	shed := map[string]int{}
	total := map[string]int{}
	for _, u := range ues {
		for r, xs := range u.lat {
			lat[r] = append(lat[r], xs...)
		}
		for r, n := range u.errs {
			errs[r] += n
		}
		for r, n := range u.shed {
			shed[r] += n
		}
		for r, n := range u.total {
			total[r] += n
		}
	}

	routes := make([]string, 0, len(total))
	for r := range total {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        cfg.Seed,
		City:        city.Config.Name,
		CityTowers:  len(city.Towers),
		UEs:         cfg.UEs,
		Mode:        "closed",
		DurationSec: measured.Seconds(),
		SLOVerdict:  "none",
	}
	if open {
		rep.Mode = "open"
		rep.TargetQPS = cfg.TargetQPS
	}

	var requests int
	allPass, anySLO := true, false
	for _, r := range routes {
		xs := lat[r]
		sort.Float64s(xs)
		rr := RouteReport{Route: r, Requests: total[r], Errors: errs[r], Shed: shed[r]}
		requests += total[r]
		if len(xs) > 0 {
			rr.P50Ms = stats.Quantile(xs, 0.50)
			rr.P95Ms = stats.Quantile(xs, 0.95)
			rr.P99Ms = stats.Quantile(xs, 0.99)
			rr.MaxMs = xs[len(xs)-1]
		}
		if slo, ok := cfg.SLOs[r]; ok {
			anySLO = true
			pass, why := checkSLO(rr, slo)
			rr.SLOPass = &pass
			rr.SLOWhy = why
			if !pass {
				allPass = false
			}
		}
		rep.Routes = append(rep.Routes, rr)
	}
	if measured > 0 {
		rep.AchievedQPS = float64(requests) / measured.Seconds()
	}
	if anySLO {
		if allPass {
			rep.SLOVerdict = "pass"
		} else {
			rep.SLOVerdict = "fail"
		}
	}
	return rep
}

func checkSLO(rr RouteReport, slo SLO) (bool, string) {
	maxErr := slo.MaxErrFrac
	if maxErr <= 0 {
		maxErr = 0.01
	}
	var why []string
	if rr.Requests == 0 {
		why = append(why, "no measured requests")
	}
	if failed := rr.Errors + rr.Shed; rr.Requests > 0 && float64(failed)/float64(rr.Requests) > maxErr {
		why = append(why, fmt.Sprintf("error+shed rate %.2f%% > %.2f%%",
			100*float64(failed)/float64(rr.Requests), 100*maxErr))
	}
	if slo.P50Ms > 0 && rr.P50Ms > slo.P50Ms {
		why = append(why, fmt.Sprintf("p50 %.1fms > %.1fms", rr.P50Ms, slo.P50Ms))
	}
	if slo.P99Ms > 0 && rr.P99Ms > slo.P99Ms {
		why = append(why, fmt.Sprintf("p99 %.1fms > %.1fms", rr.P99Ms, slo.P99Ms))
	}
	if len(why) > 0 {
		return false, strings.Join(why, "; ")
	}
	return true, ""
}

// WriteFile writes the report as indented JSON, lumosbench-style.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

// Summary renders the human-readable digest printed after a run.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lumosload: %s mode, %d UEs on %s, %.1fs measured\n", r.Mode, r.UEs, r.City, r.DurationSec)
	if r.TargetQPS > 0 {
		fmt.Fprintf(&b, "  target %.0f qps, achieved %.1f qps", r.TargetQPS, r.AchievedQPS)
	} else {
		fmt.Fprintf(&b, "  achieved %.1f qps", r.AchievedQPS)
	}
	b.WriteString("\n")
	for _, rr := range r.Routes {
		fmt.Fprintf(&b, "  %-15s %6d req %4d err %4d shed  p50 %7.2fms  p95 %7.2fms  p99 %7.2fms",
			rr.Route, rr.Requests, rr.Errors, rr.Shed, rr.P50Ms, rr.P95Ms, rr.P99Ms)
		if rr.SLOPass != nil {
			if *rr.SLOPass {
				b.WriteString("  SLO ok")
			} else {
				fmt.Fprintf(&b, "  SLO FAIL (%s)", rr.SLOWhy)
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  verdict: %s\n", r.SLOVerdict)
	return b.String()
}
