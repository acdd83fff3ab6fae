package experiments

import (
	"fmt"
	"sort"

	"lumos5g/internal/core"
	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/features"
	"lumos5g/internal/geo"
	"lumos5g/internal/radio"
	"lumos5g/internal/sim"
	"lumos5g/internal/stats"
)

// Fig1 regenerates the paper's motivating sample traces: one walking pass
// (Fig 1) and one driving pass (Fig 2) on the Loop, showing the wild
// throughput dynamics of mmWave 5G.
func Fig1(l *Lab) *Report {
	r := NewReport("fig1", "Sample 5G throughput traces, walking vs driving (Figs 1-2)")
	d := l.Area("Loop")
	traces := d.GroupByTrace()
	var walkTrace, driveTrace []float64
	// Pick the first walking and first driving pass deterministically.
	for _, k := range traceOrder(traces) {
		mode := traceMode(d, k)
		if walkTrace == nil && mode == radio.Walking {
			walkTrace = traces[k]
		}
		if driveTrace == nil && mode == radio.Driving {
			driveTrace = traces[k]
		}
	}
	for _, p := range []struct {
		name string
		tr   []float64
	}{{"walking", walkTrace}, {"driving", driveTrace}} {
		name, tr := p.name, p.tr
		if tr == nil {
			continue
		}
		s := stats.Summarize(tr)
		r.Printf("%s pass: %d s, min %.0f / median %.0f / p95 %.0f / max %.0f Mbps",
			name, s.N, s.Min, s.Median, s.P95, s.Max)
		r.Printf("  first 40 s: %s", sparkline(tr, 40))
		r.Set(name+"/median", s.Median)
		r.Set(name+"/max", s.Max)
		r.Set(name+"/min", s.Min)
	}
	return r
}

// traceOrder returns the trace keys of m ordered by area, trajectory,
// then pass.
func traceOrder(m map[dataset.TraceKey][]float64) []dataset.TraceKey {
	keys := make([]dataset.TraceKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.Area != kb.Area {
			return ka.Area < kb.Area
		}
		if ka.Trajectory != kb.Trajectory {
			return ka.Trajectory < kb.Trajectory
		}
		return ka.Pass < kb.Pass
	})
	return keys
}

// traceMode returns the mobility mode of a trace.
func traceMode(d *dataset.Dataset, k dataset.TraceKey) radio.MobilityMode {
	for i := range d.Records {
		r := &d.Records[i]
		if r.Area == k.Area && r.Trajectory == k.Trajectory && r.Pass == k.Pass {
			return r.Mode
		}
	}
	return radio.Stationary
}

// sparkline renders up to n samples as a compact ASCII gauge.
func sparkline(vals []float64, n int) string {
	glyphs := []byte(" .:-=+*#%@")
	if len(vals) < n {
		n = len(vals)
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		idx := int(vals[i] / 2000 * float64(len(glyphs)))
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[i] = glyphs[idx]
	}
	return string(out)
}

// Fig6 renders the 2 m-grid throughput heatmaps for the indoor (Airport)
// and outdoor (Intersection) areas.
func Fig6(l *Lab) *Report {
	r := NewReport("fig6", "5G throughput maps, indoor vs outdoor (Fig 6)")
	for _, area := range []string{"Airport", "Intersection"} {
		tm := core.BuildThroughputMap(l.Area(area), 3)
		r.Printf("%s map (%d cells; '.'<60 ':'<300 'o'<700 'O'<1000 '#'>=1000 Mbps):", area, len(tm.Cells))
		for _, line := range splitLines(tm.Render()) {
			r.Printf("  %s", line)
		}
		// Patch structure: consistently-high, consistently-poor, uncertain.
		high, poor, uncertain := 0, 0, 0
		for _, c := range tm.Cells {
			switch {
			case c.MeanMbps >= 1000 && c.CV < 0.5:
				high++
			case c.MeanMbps < 60:
				poor++
			case c.CV >= 0.5:
				uncertain++
			}
		}
		total := float64(len(tm.Cells))
		r.Printf("%s: %.0f%% consistently-high, %.0f%% dead, %.0f%% uncertain cells",
			area, 100*float64(high)/total, 100*float64(poor)/total, 100*float64(uncertain)/total)
		r.Set(area+"/cells", total)
		r.Set(area+"/uncertainFrac", float64(uncertain)/total)
		r.Set(area+"/cvGE50", tm.CVExceedingFraction(0.5))
	}
	return r
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Fig8 quantifies the impact of the UE-panel mobility angle θ_m on
// throughput (Fig 8 / Fig 18). Distance is controlled to a mid-range band
// so the angle effect is not confounded by proximity, and both surveyed
// areas contribute (the Intersection's turning trajectories populate the
// oblique bins).
func Fig8(l *Lab) *Report {
	r := NewReport("fig8", "Impact of UE-panel mobility angle θ_m (Figs 8, 18)")
	d := dataset.Merge(l.Area("Airport"), l.Area("Intersection")).Filter(func(rec *dataset.Record) bool {
		return rec.HasPanelInfo() && rec.Mode == radio.Walking &&
			rec.PanelDist >= 30 && rec.PanelDist <= 130
	})
	const binW = 30.0
	bins := map[int][]float64{}
	for i := range d.Records {
		rec := &d.Records[i]
		b := int(geo.Normalize360(rec.ThetaM) / binW)
		bins[b] = append(bins[b], rec.ThroughputMbps)
	}
	var keys []int
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		s := stats.Summarize(bins[k])
		lo, hi := float64(k)*binW, float64(k+1)*binW
		r.Printf("θ_m [%3.0f°, %3.0f°): n=%5d  median %4.0f  p95 %4.0f Mbps", lo, hi, s.N, s.Median, s.P95)
		r.Set(fmt.Sprintf("median/%d", int(lo)), s.Median)
	}
	// The paper's headline: head-on (θ_m near 180°) beats walking-away
	// (θ_m near 0°, body-blocked).
	if headOn, ok := r.Get("median/150"); ok {
		if away, ok2 := r.Get("median/0"); ok2 {
			r.Printf("head-on (150-180°) median %.0f vs walking-away (0-30°) median %.0f Mbps", headOn, away)
			r.Set("headOnAdvantage", headOn/away)
		}
	}
	return r
}

// Fig9 renders the NB vs SB throughput maps of the Airport corridor and
// Fig10 quantifies the Spearman grouping effect.
func Fig9(l *Lab) *Report {
	r := NewReport("fig9", "NB vs SB Airport maps + direction-grouped Spearman (Figs 9-10)")
	d := l.Area("Airport")
	nb := d.Filter(func(rec *dataset.Record) bool { return rec.Trajectory == "NB" })
	sb := d.Filter(func(rec *dataset.Record) bool { return rec.Trajectory == "SB" })
	for _, p := range []struct {
		name string
		part *dataset.Dataset
	}{{"NB", nb}, {"SB", sb}} {
		name, part := p.name, p.part
		tm := core.BuildThroughputMap(part, 2)
		r.Printf("%s map (%d cells):", name, len(tm.Cells))
		for _, line := range splitLines(tm.Render()) {
			r.Printf("  %s", line)
		}
	}
	nbT := stats.ResampleAll(traceValues(nb), 100)
	sbT := stats.ResampleAll(traceValues(sb), 100)
	sameNB := stats.MeanPairwiseSpearman(nbT)
	sameSB := stats.MeanPairwiseSpearman(sbT)
	cross := stats.CrossGroupSpearman(nbT, sbT)
	mixed := stats.MeanPairwiseSpearman(append(append([][]float64{}, nbT...), sbT...))
	r.Printf("mean pairwise Spearman: NB %.2f, SB %.2f (paper: 0.61, 0.74)", sameNB, sameSB)
	r.Printf("cross-direction Spearman: %.3f (paper: 0.021); mixed NB+SB: %.3f", cross, mixed)
	r.Set("spearman/NB", sameNB)
	r.Set("spearman/SB", sameSB)
	r.Set("spearman/cross", cross)
	r.Set("spearman/mixed", mixed)
	return r
}

func traceValues(d *dataset.Dataset) [][]float64 {
	m := d.GroupByTrace()
	out := make([][]float64, 0, len(m))
	for _, k := range traceOrder(m) {
		out = append(out, m[k])
	}
	return out
}

// Fig11 reproduces the distance-throughput relationship for the Airport
// panels: north decays monotonically; south dips NLoS at 50–100 m and
// recovers beyond (Fig 11a/b).
func Fig11(l *Lab) *Report {
	r := NewReport("fig11", "UE-panel distance vs throughput, north vs south panel (Fig 11)")
	d := l.Area("Airport")
	binsOf := func(panelID int) map[int][]float64 {
		bins := map[int][]float64{}
		for i := range d.Records {
			rec := &d.Records[i]
			if rec.CellID != panelID || !rec.HasPanelInfo() {
				continue
			}
			b := int(rec.PanelDist / 25) // 25 m bins
			bins[b] = append(bins[b], rec.ThroughputMbps)
		}
		return bins
	}
	for _, p := range []struct {
		name string
		id   int
	}{{"north", env.AirportNorthPanelID}, {"south", env.AirportSouthPanelID}} {
		name, bins := p.name, binsOf(p.id)
		var keys []int
		for k := range bins {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if len(bins[k]) < 5 {
				continue
			}
			s := stats.Summarize(bins[k])
			r.Printf("%s panel, %3d-%3d m: n=%5d median %4.0f Mbps", name, k*25, (k+1)*25, s.N, s.Median)
			r.Set(fmt.Sprintf("%s/median/%d", name, k*25), s.Median)
		}
	}
	return r
}

// Fig13 reproduces the positional-angle × distance analysis (Fig 13): the
// F sector beats L/R/B, especially at short range.
func Fig13(l *Lab) *Report {
	r := NewReport("fig13", "Positional angle sector × distance vs throughput, south panel (Fig 13)")
	d := l.Area("Airport")
	type cell struct {
		sector geo.PositionalSector
		band   int
	}
	bins := map[cell][]float64{}
	bands := []struct {
		name   string
		lo, hi float64
	}{{"<25m", 0, 25}, {"25-50m", 25, 50}, {"50-100m", 50, 100}, {">100m", 100, 1e9}}
	for i := range d.Records {
		rec := &d.Records[i]
		if rec.CellID != env.AirportSouthPanelID || !rec.HasPanelInfo() {
			continue
		}
		for bi, b := range bands {
			if rec.PanelDist >= b.lo && rec.PanelDist < b.hi {
				bins[cell{geo.SectorOf(rec.ThetaP), bi}] = append(bins[cell{geo.SectorOf(rec.ThetaP), bi}], rec.ThroughputMbps)
				break
			}
		}
	}
	for _, sec := range []geo.PositionalSector{geo.SectorFront, geo.SectorRight, geo.SectorBack, geo.SectorLeft} {
		for bi, b := range bands {
			vals := bins[cell{sec, bi}]
			if len(vals) < 5 {
				continue
			}
			s := stats.Summarize(vals)
			r.Printf("sector %s, %-7s: n=%5d median %4.0f Mbps", sec, b.name, s.N, s.Median)
			r.Set(fmt.Sprintf("%s/%s", sec, b.name), s.Median)
		}
	}
	return r
}

// Fig14 reproduces the mobility-speed analysis on the Loop: driving
// collapses beyond ~5 km/h while walking barely degrades (Fig 14a/b).
func Fig14(l *Lab) *Report {
	r := NewReport("fig14", "Impact of mobility speed, walking vs driving (Fig 14)")
	d := l.Area("Loop")
	driveBins := map[int][]float64{}
	walkBins := map[int][]float64{}
	for i := range d.Records {
		rec := &d.Records[i]
		switch rec.Mode {
		case radio.Driving:
			driveBins[int(rec.SpeedKmh/5)] = append(driveBins[int(rec.SpeedKmh/5)], rec.ThroughputMbps)
		case radio.Walking:
			walkBins[int(rec.SpeedKmh)] = append(walkBins[int(rec.SpeedKmh)], rec.ThroughputMbps)
		}
	}
	emit := func(label string, bins map[int][]float64, width int) {
		var keys []int
		for k := range bins {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if len(bins[k]) < 5 {
				continue
			}
			s := stats.Summarize(bins[k])
			r.Printf("%s %2d-%2d km/h: n=%5d median %4.0f p95 %4.0f max %4.0f Mbps",
				label, k*width, (k+1)*width, s.N, s.Median, s.P95, s.Max)
			r.Set(fmt.Sprintf("%s/median/%d", label, k*width), s.Median)
			r.Set(fmt.Sprintf("%s/max/%d", label, k*width), s.Max)
		}
	}
	emit("driving", driveBins, 5)
	emit("walking", walkBins, 1)
	return r
}

// Fig21 reproduces the multi-UE congestion experiment (§A.1.4): four UEs
// at 25 m LoS, iPerf sessions staggered by a minute.
func Fig21(l *Lab) *Report {
	r := NewReport("fig21", "Multi-UE congestion at one panel (Fig 21)")
	res := sim.RunCongestionExperiment(l.opt.seed(), 4, 60, 240)
	minuteMean := func(series []float64, minute int) float64 {
		lo := minute*60 + 10 // skip handoff/acquisition ramp
		hi := (minute + 1) * 60 * 1
		if hi > len(series) {
			hi = len(series)
		}
		var sum float64
		var n int
		for t := lo; t < hi; t++ {
			if series[t] > 0 {
				sum += series[t]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	for minute := 0; minute < 4; minute++ {
		m := minuteMean(res.Series[0], minute)
		r.Printf("UE1 minute %d (%d UEs active): mean %4.0f Mbps", minute+1, minute+1, m)
		r.Set(fmt.Sprintf("ue1/minute%d", minute+1), m)
	}
	m1, _ := r.Get("ue1/minute1")
	m2, _ := r.Get("ue1/minute2")
	if m2 > 0 {
		r.Printf("UE2 joining halves UE1's rate: %.0f -> %.0f (ratio %.2f, paper: ~0.5)", m1, m2, m2/m1)
		r.Set("halvingRatio", m2/m1)
	}
	return r
}

// Fig22 reports GDBT global feature importance per feature group.
func Fig22(l *Lab) *Report {
	r := NewReport("fig22", "GDBT global feature importance (Fig 22)")
	d := l.Global()
	sc := l.Scale()
	maxShare := 0.0
	for _, g := range features.AllGroups {
		names, imp, err := core.FeatureImportance(d, g, sc)
		if err != nil {
			r.Printf("%s: NA (%v)", g, err)
			continue
		}
		r.Printf("%s:", g)
		for i, n := range names {
			r.Printf("  %-16s %5.1f%%", n, 100*imp[i])
			r.Set(fmt.Sprintf("%s/%s", g, n), imp[i])
			if g == features.GroupTMC && imp[i] > maxShare {
				maxShare = imp[i]
			}
		}
	}
	r.Set("TMC/maxShare", maxShare)
	r.Printf("T+M+C max single-feature share: %.0f%% (paper: no single feature dominates)", 100*maxShare)
	return r
}

// Fig16 emits sample prediction series for GDBT and Seq2Seq on the Global
// dataset with L+M+C features, reporting the fraction of predictions
// within the paper's ±200 Mbps band.
func Fig16(l *Lab) *Report {
	r := NewReport("fig16", "Regression plots, L+M+C on Global (Fig 16)")
	for _, kind := range []core.ModelKind{core.ModelGDBT, core.ModelSeq2Seq} {
		res := l.Eval("Global", features.GroupLMC, kind)
		if res.Err != nil {
			r.Printf("%s: NA (%v)", kind, res.Err)
			continue
		}
		// Within ±200 Mbps proxy: assume near-normal errors, estimate
		// from RMSE via the Gaussian CDF (the harness does not keep the
		// raw residuals to stay memory-light).
		within := 2*stats.NormalCDF(200/res.RMSE) - 1
		r.Printf("%s: MAE %.0f, RMSE %.0f, ~%.0f%% of samples within ±200 Mbps", kind, res.MAE, res.RMSE, 100*within)
		r.Set(fmt.Sprintf("%s/within200", kind), within)
		r.Set(fmt.Sprintf("%s/MAE", kind), res.MAE)
	}
	return r
}

// Fig23 compares models across areas by weighted-average F1 on their best
// applicable feature group (Fig 23).
func Fig23(l *Lab) *Report {
	r := NewReport("fig23", "Model comparison per area (Fig 23)")
	for _, area := range []string{"Intersection", "Airport", "Loop"} {
		for _, kind := range []core.ModelKind{core.ModelKNN, core.ModelRF, core.ModelOK, core.ModelGDBT, core.ModelSeq2Seq} {
			g := features.GroupLMC
			if kind == core.ModelOK {
				g = features.GroupL
			}
			res := l.Eval(area, g, kind)
			if res.Err != nil {
				r.Printf("%-12s %-8s %-6s: NA", area, kind, g)
				continue
			}
			r.Printf("%-12s %-8s %-6s: w-avgF1 %.2f", area, kind, g, res.WeightedF1)
			r.Set(fmt.Sprintf("%s/%s", area, kind), res.WeightedF1)
		}
	}
	return r
}
