package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"lumos5g"
	"lumos5g/internal/dataset"
	"lumos5g/internal/engine"
	"lumos5g/internal/env"
	"lumos5g/internal/fleet"
	"lumos5g/internal/radio"
	"lumos5g/internal/rng"
	"lumos5g/internal/sim"
	"lumos5g/internal/wire"
)

// Traffic shape. Held-out campaigns run over the served city with a
// seed the model never saw.
const (
	heldOutUEs = 48
	// lookaheadUEs sizes trace_forecast's held-out campaign. How a
	// route's rows split across the two shards sets how parallel each
	// lookahead request runs, so the workload averages that over more
	// routes than ue_walk needs.
	lookaheadUEs = 96
	outageUEs    = 24
	outageTower  = 0
	// lookaheadRows is the ABR lookahead one trace_forecast request
	// asks for: one UE's next 256 seconds of route.
	lookaheadRows = 256
	// outageRounds fixes how often outage_refit forecasts, ingests and
	// refits; every segment stays below ingestQueue so a healthy server
	// sheds nothing.
	outageRounds = 6
	// outageBatchRows is the JSON forecast batch size of outage_refit.
	outageBatchRows = 64
	ingestBatch     = 64
	ingestQueue     = 4096 // lumosmapd -ingest-queue default
)

// row is one held-out second: what the UE app asks and what it then
// measured.
type row struct {
	q     wire.Query
	key   engine.Key // fleet.RouteKey of the query
	truth float64
	lte   bool
	ue    int // trace index in campaign order
	rec   dataset.Record
}

// trafficSeed derives a workload's campaign seed from the run seed, so
// each workload draws its own traffic and the same seed repeats it.
func trafficSeed(seed uint64, workload string) uint64 {
	return rng.New(seed).SplitLabeled("e2ebench/" + workload).Uint64()
}

// campaignRows simulates one campaign, keeps its clean rows and
// interleaves the UEs by second, as a server would see them arrive.
func campaignRows(area *env.Area, cfg sim.Config) []row {
	raw := sim.RunCampaignParallel(cfg, []*env.Area{area}, 0)
	d, _ := lumos5g.CleanDataset(raw)
	type ueKey struct {
		traj string
		pass int
	}
	ues := map[ueKey]int{}
	rows := make([]row, 0, d.Len())
	for _, r := range d.Records {
		k := ueKey{r.Trajectory, r.Pass}
		id, ok := ues[k]
		if !ok {
			id = len(ues)
			ues[k] = id
		}
		q := wire.Query{Lat: r.Latitude, Lon: r.Longitude}
		if !math.IsNaN(r.SpeedKmh) {
			v := r.SpeedKmh
			q.Speed = &v
		}
		if !math.IsNaN(r.CompassDeg) {
			v := r.CompassDeg
			q.Bearing = &v
		}
		rows = append(rows, row{
			q:     q,
			key:   fleet.RouteKey(q.Lat, q.Lon, q.Speed, q.Bearing),
			truth: r.ThroughputMbps,
			lte:   r.Radio == radio.RadioLTE,
			ue:    id,
			rec:   r,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].rec.Second < rows[j].rec.Second })
	// Collect the simulation's garbage before any request is sent, so it
	// paces neither the server's collections nor the process's peak.
	runtime.GC()
	return rows
}

// predictURL renders one /predict?intervals=1 query; absent sensors are
// omitted. 'f' formatting round-trips every float exactly and never
// emits the '+' of an exponent, which a query string would read as a
// space.
func predictURL(q wire.Query) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	b.WriteString("/predict?lat=")
	b.WriteString(f(q.Lat))
	b.WriteString("&lon=")
	b.WriteString(f(q.Lon))
	if q.Speed != nil {
		b.WriteString("&speed=")
		b.WriteString(f(*q.Speed))
	}
	if q.Bearing != nil {
		b.WriteString("&bearing=")
		b.WriteString(f(*q.Bearing))
	}
	b.WriteString("&intervals=1")
	return b.String()
}

// repeatShare is the share of rows whose route key an earlier row
// already asked for, and the number of distinct keys.
func repeatShare(rows []row) (share float64, distinct int) {
	seen := make(map[engine.Key]bool, len(rows))
	repeats := 0
	for _, r := range rows {
		if seen[r.key] {
			repeats++
		}
		seen[r.key] = true
	}
	if len(rows) == 0 {
		return 0, 0
	}
	return float64(repeats) / float64(len(rows)), len(seen)
}

// lookaheadChunks cuts every UE route of at least n seconds into
// lookahead requests of exactly n consecutive seconds, ordered chunk by
// chunk across UEs; a route's last request is its final n seconds, so
// it may overlap the one before. Equal request sizes keep the latency
// distribution a property of the server rather than of how the seed's
// routes happen to end. covered lists every row some request asks
// about, in row order.
func lookaheadChunks(rows []row, n int) (chunks [][]int, covered []int) {
	var perUE [][]int
	for i, r := range rows {
		for len(perUE) <= r.ue {
			perUE = append(perUE, nil)
		}
		perUE[r.ue] = append(perUE[r.ue], i)
	}
	for start := 0; ; start += n {
		added := false
		for _, idx := range perUE {
			if len(idx) < n || start >= len(idx) {
				continue
			}
			s := start
			if s+n > len(idx) {
				s = len(idx) - n
			}
			chunks = append(chunks, idx[s:s+n])
			added = true
		}
		if !added {
			break
		}
	}
	for _, idx := range perUE {
		if len(idx) >= n {
			covered = append(covered, idx...)
		}
	}
	sort.Ints(covered)
	return chunks, covered
}

// contiguousChunks splits [lo, hi) into consecutive runs of up to n.
func contiguousChunks(lo, hi, n int) [][]int {
	var out [][]int
	for s := lo; s < hi; s += n {
		e := s + n
		if e > hi {
			e = hi
		}
		idx := make([]int, 0, e-s)
		for i := s; i < e; i++ {
			idx = append(idx, i)
		}
		out = append(out, idx)
	}
	return out
}
