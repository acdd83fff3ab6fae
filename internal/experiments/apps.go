package experiments

import (
	"fmt"
	"sort"

	"lumos5g/internal/abr"
	"lumos5g/internal/core"
	"lumos5g/internal/dataset"
	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/radio"
	"lumos5g/internal/stats"
)

// ABR runs the §8.2 "5G-aware app" study: adaptive video streaming over
// a held-out walking session of the Loop, comparing controllers that use
// the in-situ harmonic mean against controllers fed Lumos5G forecasts
// (a GDBT L+M+C model trained on earlier sessions, queried along the
// planned route), plus the truth-fed oracle bound. The paper's §8.2
// observation — "existing ABR algorithms based on throughput measurement
// alone do not work well for ultra-HD video streaming over 5G" — is what
// this experiment quantifies.
func ABR(l *Lab) *Report {
	r := NewReport("abr", "5G-aware adaptive bitrate streaming (§8.2 extension)")
	d := l.Area("Loop")
	sc := l.Scale()

	// Hold out the last walking pass as the live session.
	maxPass := -1
	for i := range d.Records {
		rec := &d.Records[i]
		if rec.Trajectory == "LOOP" && rec.Mode == radio.Walking && rec.Pass < 100000 && rec.Pass > maxPass {
			maxPass = rec.Pass
		}
	}
	if maxPass < 0 {
		r.Printf("NA (no walking session)")
		return r
	}
	train := d.Filter(func(rec *dataset.Record) bool {
		return !(rec.Trajectory == "LOOP" && rec.Pass == maxPass)
	})
	session := d.Filter(func(rec *dataset.Record) bool {
		return rec.Trajectory == "LOOP" && rec.Pass == maxPass
	})
	// Time-order the session.
	sort.Slice(session.Records, func(a, b int) bool {
		return session.Records[a].Second < session.Records[b].Second
	})

	// Lumos5G forecaster: GDBT on L+M+C over the planned route (the §5.2
	// trajectory-of-features setting — the app knows where the user is
	// heading).
	mTrain := features.Build(train, features.GroupLMC)
	model, err := core.NewRegressor(core.ModelGDBT, sc)
	if err != nil {
		r.Printf("NA (%v)", err)
		return r
	}
	if err := model.Fit(mTrain.X, mTrain.Y); err != nil {
		r.Printf("NA (%v)", err)
		return r
	}
	mSession := features.Build(session, features.GroupLMC)
	lumosPred := ml.PredictAll(model, mSession.X)
	actual := make([]float64, len(mSession.RecordIdx))
	for i, ri := range mSession.RecordIdx {
		actual[i] = session.Records[ri].ThroughputMbps
	}
	if len(actual) < 60 {
		r.Printf("NA (session too short)")
		return r
	}

	const horizon = 10
	lumosFc := func(t int) []float64 {
		out := make([]float64, horizon)
		for i := 0; i < horizon; i++ {
			idx := t + i
			if idx >= len(lumosPred) {
				idx = len(lumosPred) - 1
			}
			out[i] = lumosPred[idx]
		}
		return out
	}
	hmFc := func(t int) []float64 {
		// In-situ: harmonic mean of the last 5 observed seconds, held
		// flat over the horizon.
		lo := t - 5
		if lo < 0 {
			lo = 0
		}
		var v float64
		if t == 0 {
			v = actual[0]
		} else {
			var inv float64
			for _, x := range actual[lo:t] {
				if x < 0.1 {
					x = 0.1
				}
				inv += 1 / x
			}
			v = float64(t-lo) / inv
		}
		out := make([]float64, horizon)
		for i := range out {
			out[i] = v
		}
		return out
	}
	truthFc := func(t int) []float64 {
		out := make([]float64, horizon)
		for i := range out {
			idx := t + i
			if idx >= len(actual) {
				idx = len(actual) - 1
			}
			out[i] = actual[idx]
		}
		return out
	}

	runs := []struct {
		key  string
		ctrl abr.Controller
		fc   func(int) []float64
	}{
		{"rate+HM", abr.RateBased{}, hmFc},
		{"rate+Lumos5G", abr.RateBased{}, lumosFc},
		{"buffer-based", abr.BufferBased{}, hmFc},
		{"mpc+HM", abr.Predictive{HorizonSec: horizon}, hmFc},
		{"mpc+Lumos5G", abr.Predictive{HorizonSec: horizon}, lumosFc},
		{"mpc+burst+Lumos5G", abr.Predictive{HorizonSec: horizon, Burst: true}, lumosFc},
		{"oracle", abr.Oracle{HorizonSec: horizon}, truthFc},
	}
	for _, run := range runs {
		m, err := abr.Simulate(abr.Config{}, run.ctrl, actual, run.fc)
		if err != nil {
			r.Printf("%-18s: NA (%v)", run.key, err)
			continue
		}
		r.Printf("%-18s: %s", run.key, m)
		r.Set(run.key+"/QoE", m.QoE)
		r.Set(run.key+"/bitrate", m.MeanBitrateMbps)
		r.Set(run.key+"/rebuffer", m.RebufferSec)
	}
	hmQ, _ := r.Get("mpc+HM/QoE")
	luQ, _ := r.Get("mpc+Lumos5G/QoE")
	orQ, _ := r.Get("oracle/QoE")
	if orQ != 0 {
		r.Printf("MPC closes %.0f%% of the HM->oracle QoE gap with Lumos5G forecasts",
			100*(luQ-hmQ)/(orQ-hmQ+1e-9))
		r.Set("gapClosed", (luQ-hmQ)/(orQ-hmQ+1e-9))
	}
	return r
}

// Crowd runs the §8.2 crowdsourcing study: how map/model quality grows
// with contributed measurement passes ("there is a need for a much larger
// corpus of data with increased user participation"). GDBT L+M is trained
// on an increasing number of passes and tested on a fixed held-out set.
func Crowd(l *Lab) *Report {
	r := NewReport("crowd", "Model quality vs crowdsourced passes (§8.2 extension)")
	d := l.Area("Airport")
	sc := l.Scale()

	maxPass := 0
	for i := range d.Records {
		if p := d.Records[i].Pass; p < 100000 && p > maxPass {
			maxPass = p
		}
	}
	if maxPass < 3 {
		r.Printf("NA (need several passes)")
		return r
	}
	holdFrom := maxPass - 1 // last two passes are the fixed test set
	test := d.Filter(func(rec *dataset.Record) bool {
		return rec.Pass >= holdFrom && rec.Pass < 100000
	})
	mTest := features.Build(test, features.GroupLM)

	var prevMAE float64
	for _, n := range []int{1, 2, 4, holdFrom} {
		if n > holdFrom {
			n = holdFrom
		}
		train := d.Filter(func(rec *dataset.Record) bool {
			return rec.Pass < n
		})
		mTrain := features.Build(train, features.GroupLM)
		if len(mTrain.X) == 0 {
			continue
		}
		model, err := core.NewRegressor(core.ModelGDBT, sc)
		if err != nil {
			continue
		}
		if err := model.Fit(mTrain.X, mTrain.Y); err != nil {
			continue
		}
		mae := stats.MAE(ml.PredictAll(model, mTest.X), mTest.Y)
		r.Printf("%2d contributed pass(es) per trajectory: MAE %4.0f", n, mae)
		r.Set(fmt.Sprintf("mae/%d", n), mae)
		prevMAE = mae
	}
	first, ok1 := r.Get("mae/1")
	if ok1 && prevMAE > 0 {
		r.Printf("going from 1 pass to %d improves MAE %.2fx — participation pays (§8.2)", holdFrom, first/prevMAE)
		r.Set("participationGain", first/prevMAE)
	}
	return r
}
