// Package sim runs the measurement campaign: it drives simulated UEs along
// the areas' trajectories (walking and driving, repeated passes, plus
// stationary sessions), feeds their kinematics through the radio
// connection manager, applies the sensor error models, and emits
// per-second dataset.Records with every Table 1 field — a synthetic
// equivalent of the paper's 6-month Minneapolis campaign.
package sim

import (
	"math"

	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/geo"
	"lumos5g/internal/mobility"
	"lumos5g/internal/radio"
	"lumos5g/internal/rng"
)

// Config controls a campaign.
type Config struct {
	// Seed makes the whole campaign reproducible.
	Seed uint64
	// WalkPasses is the number of repeated walking passes per trajectory
	// (the paper performs at least 30, §3.2).
	WalkPasses int
	// DrivePasses is the number of driving passes per Loop trajectory.
	DrivePasses int
	// StationarySessions is the number of 60 s stationary sessions
	// sampled at random points of each area.
	StationarySessions int
	// BackgroundUEProb is the per-second probability that one or two
	// other UEs share the serving panel — the "time-of-day" contention
	// the paper observed but could not control (§A.1.4).
	BackgroundUEProb float64
}

// DefaultConfig mirrors the paper's campaign shape at full scale.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		WalkPasses:         30,
		DrivePasses:        30,
		StationarySessions: 10,
		BackgroundUEProb:   0.12,
	}
}

// SmallConfig is a scaled-down campaign for tests and examples.
func SmallConfig() Config {
	return Config{
		Seed:               1,
		WalkPasses:         6,
		DrivePasses:        6,
		StationarySessions: 3,
		BackgroundUEProb:   0.12,
	}
}

// Shard is one independently runnable unit of a campaign: a single
// walking/driving pass or stationary session. Shards are the checkpoint
// granularity of resumable runs — each is regenerated atomically, and a
// run's shard list is a pure function of its Config.
type Shard struct {
	Area string `json:"area"`
	Kind string `json:"kind"` // "walk", "drive" or "still"
	Traj string `json:"traj,omitempty"`
	Pass int    `json:"pass"`
}

// AreaShards enumerates one area's shards in canonical execution order:
// per trajectory all walking then driving passes, then the stationary
// sessions. Running them in order through an areaRunner reproduces
// RunArea exactly.
func AreaShards(a *env.Area, cfg Config) []Shard {
	var shards []Shard
	for _, tr := range a.Trajectories {
		for pass := 0; pass < cfg.WalkPasses; pass++ {
			shards = append(shards, Shard{Area: a.Name, Kind: "walk", Traj: tr.Name, Pass: pass})
		}
		if a.DrivingSupported {
			for pass := 0; pass < cfg.DrivePasses; pass++ {
				shards = append(shards, Shard{Area: a.Name, Kind: "drive", Traj: tr.Name, Pass: pass})
			}
		}
	}
	for s := 0; s < cfg.StationarySessions; s++ {
		shards = append(shards, Shard{Area: a.Name, Kind: "still", Pass: s})
	}
	return shards
}

// areaRunner executes one area's shards. Walking and driving shards draw
// from label-derived streams and can run in any order; stationary shards
// consume the shared st stream and must run in Pass order (resume
// restores st from the checkpointed rng.State instead of replaying).
type areaRunner struct {
	a    *env.Area
	cfg  Config
	envr *radio.Environment
	lte  *radio.LTEModel
	root *rng.Source
	st   *rng.Source
}

func newAreaRunner(a *env.Area, cfg Config) *areaRunner {
	root := rng.New(cfg.Seed).SplitLabeled("area:" + a.Name)
	envr, lte := a.Realize(cfg.Seed)
	return &areaRunner{
		a: a, cfg: cfg, envr: envr, lte: lte,
		root: root,
		st:   root.SplitLabeled("stationary"),
	}
}

// run executes one shard and returns its records.
func (ar *areaRunner) run(sh Shard) []dataset.Record {
	switch sh.Kind {
	case "walk", "drive":
		return ar.runMobile(sh)
	case "still":
		return ar.runStill(ar.drawStill(sh.Pass), sh.Pass)
	}
	return nil
}

// runMobile executes a walking or driving shard. Its randomness derives
// entirely from label-based splits of the (never advanced) root stream,
// so it is a pure function of the shard — safe to run from any
// goroutine, in any order, concurrently with other shards of the same
// runner.
func (ar *areaRunner) runMobile(sh Shard) []dataset.Record {
	var tr *env.Trajectory
	for i := range ar.a.Trajectories {
		if ar.a.Trajectories[i].Name == sh.Traj {
			tr = &ar.a.Trajectories[i]
			break
		}
	}
	if tr == nil {
		return nil
	}
	if sh.Kind == "drive" {
		src := ar.root.SplitLabeled(passLabel(tr.Name, "drive", sh.Pass))
		return runPass(ar.a, ar.envr, ar.lte, *tr, radio.Driving, ar.cfg.WalkPasses+sh.Pass, ar.cfg, src)
	}
	src := ar.root.SplitLabeled(passLabel(tr.Name, "walk", sh.Pass))
	return runPass(ar.a, ar.envr, ar.lte, *tr, radio.Walking, sh.Pass, ar.cfg, src)
}

// stillDraw holds everything a stationary shard consumes from the shared
// sequential st stream: the pinned spot and the shard's own child
// stream. Drawing it advances st by exactly two values, so draws must
// happen in Pass order; executing the shard afterwards touches no shared
// randomness at all.
type stillDraw struct {
	spot env.Trajectory
	src  *rng.Source
}

// drawStill consumes the stationary stream for one still shard. Callers
// parallelising shard execution call this serially, in shard order, and
// hand the draw to any worker.
func (ar *areaRunner) drawStill(pass int) stillDraw {
	tr := ar.a.Trajectories[ar.st.Intn(len(ar.a.Trajectories))]
	frac := ar.st.Float64()
	spot := stationaryTrajectory(tr, frac)
	return stillDraw{spot: spot, src: ar.st.SplitLabeled(passLabel(spot.Name, "still", pass))}
}

// runStill executes a stationary shard from its pre-drawn inputs.
func (ar *areaRunner) runStill(d stillDraw, pass int) []dataset.Record {
	return runPass(ar.a, ar.envr, ar.lte, d.spot, radio.Stationary, 100000+pass, ar.cfg, d.src)
}

// stillState exposes the stationary stream's state for checkpointing.
func (ar *areaRunner) stillState() rng.State { return ar.st.State() }

// restoreStill rewinds/advances the stationary stream to a checkpointed
// state.
func (ar *areaRunner) restoreStill(st rng.State) { ar.st.Restore(st) }

// RunArea simulates the campaign for one area and returns its records.
func RunArea(a *env.Area, cfg Config) *dataset.Dataset {
	ar := newAreaRunner(a, cfg)
	d := &dataset.Dataset{}
	for _, sh := range AreaShards(a, cfg) {
		d.Append(ar.run(sh)...)
	}
	return d
}

// stationaryTrajectory pins a single-point trajectory at the given
// fraction of tr, preserving the local heading so θ_m stays meaningful.
func stationaryTrajectory(tr env.Trajectory, frac float64) env.Trajectory {
	p := tr.At(frac * tr.Length())
	return env.Trajectory{Name: tr.Name + "@still", Waypoints: []geo.Point{p}}
}

func passLabel(traj, mode string, pass int) string {
	return traj + "/" + mode + "/" + itoa(pass)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// runPass simulates one traversal and converts ticks to records.
func runPass(a *env.Area, envr *radio.Environment, lte *radio.LTEModel,
	tr env.Trajectory, mode radio.MobilityMode, pass int, cfg Config, src *rng.Source) []dataset.Record {

	ticks := mobility.GeneratePass(a, tr, mode, src.SplitLabeled("kinematics"))
	if len(ticks) == 0 {
		return nil
	}
	gps := mobility.NewGPSModel(src.SplitLabeled("gps"))
	compass := mobility.NewCompassModel(src.SplitLabeled("compass"))
	conn := radio.NewConnection(envr, lte, src.SplitLabeled("radio"))
	bg := src.SplitLabeled("background")
	sensors := src.SplitLabeled("sensors")

	recs := make([]dataset.Record, 0, len(ticks))
	for _, tk := range ticks {
		ue := radio.UEState{Pos: tk.Pos, Heading: tk.Heading, SpeedKmh: tk.SpeedKmh, Mode: tk.Mode}
		sharing := 0
		if bg.Bool(cfg.BackgroundUEProb) {
			sharing = 1 + bg.Intn(2)
		}
		obs := conn.Tick(ue, sharing)

		measPos, acc := gps.Observe(tk.Pos)
		measHeading, headAcc := compass.Observe(tk.Heading)
		measSpeed := mobility.SpeedNoise(tk.SpeedKmh, sensors)
		latlon := a.Frame.ToLatLon(measPos)
		px := geo.Pixelize(latlon, geo.DefaultZoom)

		rec := dataset.Record{
			Area:       a.Name,
			Trajectory: tr.Name,
			Pass:       pass,
			Second:     tk.Second,

			Latitude:    latlon.Lat,
			Longitude:   latlon.Lon,
			GPSAccuracy: acc,
			Activity:    mobility.DetectedActivity(tk.Mode, tk.SpeedKmh, sensors),
			SpeedKmh:    measSpeed,
			CompassDeg:  measHeading,
			CompassAcc:  headAcc,

			ThroughputMbps: obs.ThroughputMbps,
			Radio:          obs.Radio,
			CellID:         obs.CellID,
			LteRsrp:        obs.LteRsrpDBm,
			LteRsrq:        obs.LteRsrqDB,
			LteRssi:        obs.LteRssiDBm,
			SSRsrp:         obs.SSRsrpDBm,
			SSRsrq:         obs.SSRsrqDB,
			SSSinr:         obs.SSSinrDB,
			HorizontalHO:   obs.HorizontalHandoff,
			VerticalHO:     obs.VerticalHandoff,

			PixelX:     px.X,
			PixelY:     px.Y,
			Mode:       tk.Mode,
			SharingUEs: sharing,
		}
		rec.PanelDist, rec.ThetaP, rec.ThetaM = panelFeatures(a, envr, obs, measPos, measHeading)
		recs = append(recs, rec)
	}
	return recs
}

// panelFeatures computes the tower-based feature triplet from the
// *measured* UE position and heading, the way the paper post-processes its
// logs against the manually surveyed panel locations. When the UE is on
// LTE the features are computed against the geometrically nearest panel
// ("the panel it would connect to"); when the area's panels were never
// surveyed (Loop) they are NaN.
func panelFeatures(a *env.Area, envr *radio.Environment, obs radio.TickObservation,
	measPos geo.Point, measHeading float64) (dist, thetaP, thetaM float64) {

	if !a.PanelInfoKnown || len(envr.Panels) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	var panel *radio.Panel
	if obs.Radio == radio.RadioNR {
		for i := range envr.Panels {
			if envr.Panels[i].ID == obs.CellID {
				panel = &envr.Panels[i]
				break
			}
		}
	}
	if panel == nil {
		// Nearest panel fallback.
		bestD := math.Inf(1)
		for i := range envr.Panels {
			if d := envr.Panels[i].Distance(measPos); d < bestD {
				bestD = d
				panel = &envr.Panels[i]
			}
		}
	}
	return panel.Distance(measPos),
		panel.PositionalAngle(measPos),
		panel.MobilityAngle(measHeading)
}

// RunCampaign simulates all areas under cfg and returns the merged raw
// dataset (before quality filtering).
func RunCampaign(cfg Config) *dataset.Dataset {
	var parts []*dataset.Dataset
	for _, a := range env.AllAreas() {
		parts = append(parts, RunArea(a, cfg))
	}
	return dataset.Merge(parts...)
}
