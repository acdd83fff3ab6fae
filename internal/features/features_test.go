package features

import (
	"math"
	"testing"

	"lumos5g/internal/dataset"
	"lumos5g/internal/env"
	"lumos5g/internal/radio"
	"lumos5g/internal/sim"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := sim.Config{Seed: 1, WalkPasses: 2, StationarySessions: 1, BackgroundUEProb: 0.1}
	d := sim.RunArea(env.Airport(), cfg)
	clean, _ := d.QualityFilter()
	return clean
}

func TestParseGroup(t *testing.T) {
	cases := map[string]Group{
		"L": GroupL, "m": GroupM, "T": GroupT, "c": GroupC,
		"L+M": GroupLM, "M+L": GroupLM,
		"T+M": GroupTM, "m+t": GroupTM,
		"L+M+C": GroupLMC, "C+M+L": GroupLMC,
		"T+M+C": GroupTMC, " t+m+c ": GroupTMC,
	}
	for s, want := range cases {
		got, err := ParseGroup(s)
		if err != nil || got != want {
			t.Errorf("ParseGroup(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseGroup("X+Y"); err == nil {
		t.Fatal("unknown group should error")
	}
}

func TestGroupStringsRoundTrip(t *testing.T) {
	for _, g := range []Group{GroupL, GroupM, GroupT, GroupC, GroupLM, GroupTM, GroupLMC, GroupTMC} {
		back, err := ParseGroup(g.String())
		if err != nil || back != g {
			t.Errorf("round trip failed for %v", g)
		}
	}
}

func TestBuildShapes(t *testing.T) {
	d := testData(t)
	wantDims := map[Group]int{
		GroupL:   2,
		GroupM:   3,
		GroupT:   5,
		GroupC:   11,
		GroupLM:  5,
		GroupTM:  6,
		GroupLMC: 16,
		GroupTMC: 17,
	}
	for g, dim := range wantDims {
		m := Build(d, g)
		if len(m.Names) != dim {
			t.Errorf("%v: %d names, want %d", g, len(m.Names), dim)
		}
		if len(m.X) == 0 || len(m.X) != len(m.Y) || len(m.X) != len(m.RecordIdx) {
			t.Errorf("%v: inconsistent matrix sizes", g)
		}
		for _, row := range m.X {
			if len(row) != dim {
				t.Fatalf("%v: row dim %d, want %d", g, len(row), dim)
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v: non-finite feature %s", g, m.Names[j])
				}
			}
		}
	}
}

func TestBuildSkipsTWithoutPanelInfo(t *testing.T) {
	cfg := sim.Config{Seed: 2, WalkPasses: 1, BackgroundUEProb: 0}
	loop := sim.RunArea(env.Loop(), cfg)
	m := Build(loop, GroupTM)
	if len(m.X) != 0 {
		t.Fatalf("Loop has no surveyed panels; T+M must produce 0 rows, got %d", len(m.X))
	}
	// L+M still works there.
	if lm := Build(loop, GroupLM); len(lm.X) == 0 {
		t.Fatal("L+M should work on Loop")
	}
}

// TestBuildAllocsIndependentOfRows: Build carves every row from one
// backing slice, so sixteen times the rows cost no more than the few
// allocations the per-trace history slices need to grow (one per row
// when each row was its own slice).
func TestBuildAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		d := &dataset.Dataset{}
		for s := 0; s < n; s++ {
			d.Append(dataset.Record{
				Area: "A", Trajectory: "T", Second: s,
				ThroughputMbps: float64(100 + s%50), Radio: radio.RadioNR,
				LteRsrp: -90, LteRsrq: -10, LteRssi: -60,
				SSRsrp: -85, SSRsrq: -11, SSSinr: 15,
			})
		}
		return testing.AllocsPerRun(3, func() { Build(d, GroupLMC) })
	}
	small, large := allocs(250), allocs(4000)
	t.Logf("%v allocs at 250 rows, %v at 4000", small, large)
	if large > small+16 {
		t.Fatalf("Build allocates %v for 250 rows but %v for 4000", small, large)
	}
}

// TestBuildSkipsNonFiniteRecords: a record is usable under a group only
// when every value it yields is finite, so an absent LTE sensor drops
// the record from the connection groups and from no other.
func TestBuildSkipsNonFiniteRecords(t *testing.T) {
	d := testData(t)
	nan := math.NaN()
	d.Records[0].LteRsrp = nan
	d.Records[1].SpeedKmh = nan
	full := len(d.Records)
	for _, c := range []struct {
		g    Group
		rows int
	}{{GroupL, full}, {GroupLM, full - 1}, {GroupLMC, full - 2}} {
		m := Build(d, c.g)
		if len(m.X) != c.rows {
			t.Fatalf("%v: %d rows, want %d", c.g, len(m.X), c.rows)
		}
	}
}

func TestSentinelImputation(t *testing.T) {
	d := testData(t)
	m := Build(d, GroupLMC)
	col := map[string]int{}
	for j, n := range m.Names {
		col[n] = j
	}
	sawSentinel := false
	for k, row := range m.X {
		r := &d.Records[m.RecordIdx[k]]
		if r.Radio == radio.RadioLTE {
			if row[col["ss_rsrp"]] != SentinelSSRsrp {
				t.Fatalf("LTE record should impute ss_rsrp, got %v", row[col["ss_rsrp"]])
			}
			if row[col["radio_type"]] != 0 {
				t.Fatal("radio_type should be 0 on LTE")
			}
			sawSentinel = true
		} else if row[col["radio_type"]] != 1 {
			t.Fatal("radio_type should be 1 on NR")
		}
	}
	if !sawSentinel {
		t.Skip("no LTE records in this campaign slice")
	}
}

func TestPastThroughputWithinTrace(t *testing.T) {
	d := &dataset.Dataset{}
	mk := func(pass, sec int, tput float64) dataset.Record {
		return dataset.Record{
			Area: "A", Trajectory: "T", Pass: pass, Second: sec,
			ThroughputMbps: tput, Radio: radio.RadioNR,
			LteRsrp: -90, LteRsrq: -10, LteRssi: -60,
			SSRsrp: -85, SSRsrq: -11, SSSinr: 15,
		}
	}
	// Trace 0: 100, 200, 400. Trace 1: 900.
	d.Append(mk(0, 0, 100), mk(0, 1, 200), mk(0, 2, 400), mk(1, 0, 900))
	past := pastThroughputs(d)
	if past[0].last != 100 || past[0].hmean != 100 {
		t.Fatalf("first record uses itself: %+v", past[0])
	}
	if past[1].last != 100 {
		t.Fatalf("second record last = %v", past[1].last)
	}
	if past[2].last != 200 {
		t.Fatalf("third record last = %v", past[2].last)
	}
	// HM of {100, 200} = 2/(1/100+1/200) = 133.33.
	if math.Abs(past[2].hmean-133.333) > 0.01 {
		t.Fatalf("third record hmean = %v", past[2].hmean)
	}
	// Different pass: history must not leak across traces.
	if past[3].last != 900 {
		t.Fatalf("new trace should start fresh: %+v", past[3])
	}
}

func TestCompassEncodedAsSinCos(t *testing.T) {
	d := &dataset.Dataset{}
	r := dataset.Record{
		Area: "A", Trajectory: "T", CompassDeg: 90,
		LteRsrp: -90, LteRsrq: -10, LteRssi: -60,
	}
	d.Append(r)
	m := Build(d, GroupM)
	// speed, sin, cos
	if math.Abs(m.X[0][1]-1) > 1e-9 || math.Abs(m.X[0][2]) > 1e-9 {
		t.Fatalf("compass 90° should encode as (1, 0): %v", m.X[0])
	}
}

func TestBuildSequencesWindows(t *testing.T) {
	d := testData(t)
	set := BuildSequences(d, GroupLM, 10, 1)
	if len(set.X) == 0 {
		t.Fatal("no sequences")
	}
	if len(set.X) != len(set.Y) || len(set.X) != len(set.RecordIdx) {
		t.Fatal("inconsistent set sizes")
	}
	for i, seq := range set.X {
		if len(seq) != 10 {
			t.Fatalf("sequence %d length %d", i, len(seq))
		}
		for _, step := range seq {
			if len(step) != len(set.Names) {
				t.Fatal("step dimension mismatch")
			}
		}
		if len(set.Y[i]) != 1 {
			t.Fatal("target length")
		}
	}
	// The predicted record's throughput must equal the target.
	for i := range set.X {
		r := &d.Records[set.RecordIdx[i]]
		if r.ThroughputMbps != set.Y[i][0] {
			t.Fatal("RecordIdx must point at the predicted sample")
		}
	}
}

func TestBuildSequencesMultiStep(t *testing.T) {
	d := testData(t)
	set := BuildSequences(d, GroupL, 5, 3)
	if len(set.X) == 0 {
		t.Fatal("no sequences")
	}
	if len(set.Y[0]) != 3 {
		t.Fatalf("outLen = %d", len(set.Y[0]))
	}
}

func TestBuildSequencesDoNotCrossTraces(t *testing.T) {
	d := &dataset.Dataset{}
	for pass := 0; pass < 2; pass++ {
		for sec := 0; sec < 6; sec++ {
			d.Append(dataset.Record{
				Area: "A", Trajectory: "T", Pass: pass, Second: sec,
				ThroughputMbps: float64(pass*1000 + sec),
				LteRsrp:        -90, LteRsrq: -10, LteRssi: -60,
			})
		}
	}
	set := BuildSequences(d, GroupL, 4, 1)
	// Windows end at the predicted second: each 6-record trace yields
	// 6-4+1 = 3 windows; 2 traces → 6.
	if len(set.X) != 6 {
		t.Fatalf("windows = %d, want 6", len(set.X))
	}
	for i := range set.X {
		// Target must belong to the same trace as the window start; with
		// per-pass throughput offsets of 1000 this is detectable.
		y := set.Y[i][0]
		if y != 3 && y != 4 && y != 5 && y != 1003 && y != 1004 && y != 1005 {
			t.Fatalf("target %v crossed a trace boundary", y)
		}
	}
}

func TestSequenceSplitAndSubsample(t *testing.T) {
	d := testData(t)
	set := BuildSequences(d, GroupLM, 8, 1)
	train, test := set.SplitTrainTest(42)
	if len(train.X)+len(test.X) != len(set.X) {
		t.Fatal("split lost windows")
	}
	if len(train.X) == 0 || len(test.X) == 0 {
		t.Fatal("degenerate split")
	}
	sub := set.Subsample(10, 7)
	if len(sub.X) != 10 {
		t.Fatalf("subsample size = %d", len(sub.X))
	}
	same := set.Subsample(len(set.X)+10, 7)
	if len(same.X) != len(set.X) {
		t.Fatal("oversized subsample should return everything")
	}
}

// TestServingSchemaCoversEveryGroup: every column Build can produce is
// a serving-schema column, so no trained tier is left unservable, and
// Query.Set marks a value usable exactly when ValidRange contains it.
func TestServingSchemaCoversEveryGroup(t *testing.T) {
	seen := map[Col]string{}
	for g := GroupL; g <= GroupTMC; g++ {
		for _, name := range GroupNames(g) {
			c, ok := ColumnOf(name)
			if !ok {
				t.Fatalf("group %s column %q is outside the serving schema", g, name)
			}
			if prev, dup := seen[c]; dup && prev != name {
				t.Fatalf("columns %q and %q share schema slot %d", prev, name, c)
			}
			seen[c] = name
		}
	}
	if len(seen) != int(NumCols) {
		t.Fatalf("groups use %d of %d schema columns", len(seen), NumCols)
	}
	for c, name := range seen {
		fr, _ := ValidRange(name)
		for _, v := range []float64{fr.Lo, fr.Hi, (fr.Lo + fr.Hi) / 2, fr.Lo - 1, fr.Hi + 1,
			math.NaN(), math.Inf(1), math.Inf(-1)} {
			var q Query
			q.Set(c, v)
			got, ok := q.Usable(c)
			if ok != fr.Contains(v) || (q.Valid() != 0) != ok {
				t.Fatalf("%s = %v: usable %v, range says %v", name, v, ok, fr.Contains(v))
			}
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s: stored %v, set %v", name, got, v)
			}
			if q.Set(c, (fr.Lo+fr.Hi)/2); q.Valid() != c.Bit() {
				t.Fatalf("%s: re-setting a usable value left mask %b", name, q.Valid())
			}
		}
	}
	if q := QueryOf(map[string]float64{"pixel_x": 5, "bogus": 1, "moving_speed": -1}); q.Valid() != ColPixelX.Bit() {
		t.Fatalf("QueryOf mask %b, want only pixel_x", q.Valid())
	}
}

// GroupNames returns the feature column names Build produces for g.
func GroupNames(g Group) []string { return featureNames(g) }
