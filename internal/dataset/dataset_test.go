package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lumos5g/internal/radio"
)

// mkRecord builds a plausible 5G record for tests.
func mkRecord(area string, pass, second int, tput float64) Record {
	return Record{
		Area: area, Trajectory: "NB", Pass: pass, Second: second,
		Latitude: 44.88, Longitude: -93.21, GPSAccuracy: 2.0,
		Activity: "walking", SpeedKmh: 4.5, CompassDeg: 12.3, CompassAcc: 4,
		ThroughputMbps: tput, Radio: radio.RadioNR, CellID: 310,
		LteRsrp: -92, LteRsrq: -10.5, LteRssi: -65,
		SSRsrp: -88, SSRsrq: -11, SSSinr: 18,
		PanelDist: 55, ThetaP: 12, ThetaM: 170,
		PixelX: 100 + second, PixelY: 200, Mode: radio.Walking,
	}
}

func TestAppendLenMerge(t *testing.T) {
	a := &Dataset{}
	a.Append(mkRecord("Airport", 0, 0, 900))
	b := &Dataset{}
	b.Append(mkRecord("Loop", 0, 0, 100), mkRecord("Loop", 0, 1, 120))
	m := Merge(a, b)
	if m.Len() != 3 {
		t.Fatalf("merged len = %d", m.Len())
	}
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatal("merge must not mutate parts")
	}
}

func TestFilterArea(t *testing.T) {
	d := &Dataset{}
	d.Append(mkRecord("Airport", 0, 0, 1), mkRecord("Loop", 0, 0, 2), mkRecord("Airport", 1, 0, 3))
	if got := d.FilterArea("Airport").Len(); got != 2 {
		t.Fatalf("airport records = %d", got)
	}
	if got := d.FilterArea("Mars").Len(); got != 0 {
		t.Fatal("unknown area should be empty")
	}
}

func TestQualityFilter(t *testing.T) {
	d := &Dataset{}
	good := mkRecord("Airport", 0, 30, 500)
	warmup := mkRecord("Airport", 0, 3, 500) // within warm-up buffer
	badFix := mkRecord("Airport", 0, 40, 500)
	badFix.GPSAccuracy = 15 // individually dropped gross outlier
	stationaryEarly := mkRecord("Airport", 0, 3, 500)
	stationaryEarly.Mode = radio.Stationary
	d.Append(good, warmup, badFix, stationaryEarly)
	// A whole separate pass with terrible average GPS: dropped entirely,
	// even though its seconds are past warm-up.
	for s := 20; s < 24; s++ {
		r := mkRecord("Airport", 7, s, 500)
		r.GPSAccuracy = 8
		d.Append(r)
	}
	clean, dropped := d.QualityFilter()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6 (warm-up + gross fix + 4-record bad pass)", dropped)
	}
	if clean.Len() != 2 {
		t.Fatalf("clean len = %d", clean.Len())
	}
	for _, r := range clean.Records {
		if r.Pass == 7 {
			t.Fatal("bad-GPS pass should be gone")
		}
	}
}

func TestSplitTrainTest(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 1000; i++ {
		d.Append(mkRecord("Airport", i/100, i%100, float64(i)))
	}
	train, test := d.SplitTrainTest(42)
	if train.Len() != 700 || test.Len() != 300 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
	// Disjoint and complete.
	seen := map[float64]int{}
	for _, r := range train.Records {
		seen[r.ThroughputMbps]++
	}
	for _, r := range test.Records {
		seen[r.ThroughputMbps]++
	}
	if len(seen) != 1000 {
		t.Fatalf("split lost or duplicated records: %d unique", len(seen))
	}
	// Deterministic.
	train2, _ := d.SplitTrainTest(42)
	for i := range train.Records {
		if train.Records[i].ThroughputMbps != train2.Records[i].ThroughputMbps {
			t.Fatal("same seed should give same split")
		}
	}
	// Different seed differs.
	train3, _ := d.SplitTrainTest(43)
	same := 0
	for i := range train.Records {
		if train.Records[i].ThroughputMbps == train3.Records[i].ThroughputMbps {
			same++
		}
	}
	if same == train.Len() {
		t.Fatal("different seeds should shuffle differently")
	}
}

func TestGroupByGrid(t *testing.T) {
	d := &Dataset{}
	r1 := mkRecord("Airport", 0, 0, 1)
	r1.PixelX, r1.PixelY = 10, 10
	r2 := mkRecord("Airport", 0, 1, 2)
	r2.PixelX, r2.PixelY = 11, 11 // same 2×2 block
	r3 := mkRecord("Airport", 0, 2, 3)
	r3.PixelX, r3.PixelY = 13, 10 // different block
	d.Append(r1, r2, r3)
	groups := d.GroupByGrid()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	grids := d.GridThroughputs(2)
	if len(grids) != 1 {
		t.Fatalf("grids with >=2 samples = %d, want 1", len(grids))
	}
	for _, vals := range grids {
		if len(vals) != 2 {
			t.Fatalf("grid sample count = %d", len(vals))
		}
	}
}

func TestGroupByTraceOrdersBySecond(t *testing.T) {
	d := &Dataset{}
	// Insert out of order.
	d.Append(mkRecord("Airport", 0, 2, 30), mkRecord("Airport", 0, 0, 10), mkRecord("Airport", 0, 1, 20))
	d.Append(mkRecord("Airport", 1, 0, 99))
	traces := d.GroupByTrace()
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[TraceKey{"Airport", "NB", 0}]
	want := []float64{10, 20, 30}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace = %v, want %v", tr, want)
		}
	}
}

func TestSummary(t *testing.T) {
	d := &Dataset{}
	w := mkRecord("Airport", 0, 20, 800) // walking at 4.5 km/h
	drv := mkRecord("Loop", 0, 20, 100)
	drv.Mode = radio.Driving
	drv.SpeedKmh = 36 // 10 m/s
	lte := mkRecord("Loop", 0, 21, 50)
	lte.Radio = radio.RadioLTE
	lte.VerticalHO = true
	d.Append(w, drv, lte)
	s := d.Summary()
	if s.DataPoints != 3 {
		t.Fatal("datapoints")
	}
	if math.Abs(s.DrivenKm-0.01) > 1e-9 {
		t.Fatalf("driven km = %v, want 0.01", s.DrivenKm)
	}
	if s.WalkedKm <= 0 {
		t.Fatal("walked km should be positive")
	}
	if math.Abs(s.DownloadGB-(800+100+50)/8.0/1000) > 1e-9 {
		t.Fatalf("download GB = %v", s.DownloadGB)
	}
	if math.Abs(s.NRFraction-2.0/3.0) > 1e-9 {
		t.Fatalf("NR fraction = %v", s.NRFraction)
	}
	if s.HandoffRate <= 0 {
		t.Fatal("handoff rate should count the vertical handoff")
	}
	if s.Areas["Airport"] != 1 || s.Areas["Loop"] != 2 {
		t.Fatalf("area counts = %v", s.Areas)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := &Dataset{}
	r1 := mkRecord("Airport", 0, 0, 812.3456)
	r2 := mkRecord("Loop", 3, 17, 55.5)
	r2.Radio = radio.RadioLTE
	r2.CellID = -1
	r2.SSRsrp, r2.SSRsrq, r2.SSSinr = math.NaN(), math.NaN(), math.NaN()
	r2.PanelDist, r2.ThetaP, r2.ThetaM = math.NaN(), math.NaN(), math.NaN()
	r2.Mode = radio.Driving
	r2.HorizontalHO = true
	d.Append(r1, r2)

	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip len = %d", back.Len())
	}
	g1, g2 := back.Records[0], back.Records[1]
	if g1.Area != "Airport" || g1.Radio != radio.RadioNR || g1.CellID != 310 {
		t.Fatalf("record 1 mangled: %+v", g1)
	}
	if math.Abs(g1.ThroughputMbps-812.3456) > 1e-3 {
		t.Fatalf("throughput mangled: %v", g1.ThroughputMbps)
	}
	if g2.Radio != radio.RadioLTE || !g2.HorizontalHO || g2.Mode != radio.Driving {
		t.Fatalf("record 2 mangled: %+v", g2)
	}
	if !math.IsNaN(g2.SSRsrp) || !math.IsNaN(g2.PanelDist) {
		t.Fatal("NaN fields must round-trip as NaN")
	}
	if g2.HasPanelInfo() {
		t.Fatal("record without panel info must report so")
	}
	if !g1.HasPanelInfo() {
		t.Fatal("record with panel info must report so")
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Fatal("bad header should error")
	}
}

func TestReadCSVRejectsBadRow(t *testing.T) {
	d := &Dataset{}
	d.Append(mkRecord("Airport", 0, 0, 1))
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the radio column of the data row.
	s := buf.String()
	s = strings.Replace(s, ",NR,", ",5G?,", 1)
	if _, err := ReadCSV(strings.NewReader(s)); err == nil {
		t.Fatal("bad radio value should error")
	}
}

func TestReadCSVReportsLineNumbers(t *testing.T) {
	d := &Dataset{}
	d.Append(mkRecord("Airport", 0, 0, 1), mkRecord("Airport", 0, 1, 2))
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf.String(), ",NR,", ",5G?,", 1)
	_, err := ReadCSV(strings.NewReader(s))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered error for first data row, got %v", err)
	}
}

func TestReadCSVLenient(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 5; i++ {
		d.Append(mkRecord("Airport", 0, i, float64(100+i)))
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Corrupt row 2 (bad radio), row 4 (wrong field count); append junk.
	lines[2] = strings.Replace(lines[2], ",NR,", ",5G?,", 1)
	lines[4] = "short,row"
	lines = append(lines, "complete,garbage,here")
	in := strings.Join(lines, "\n") + "\n"

	got, rep, err := ReadCSVLenient(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || rep.Rows != 3 {
		t.Fatalf("want 3 clean rows, got %d (report %+v)", got.Len(), rep)
	}
	if rep.Quarantined != 3 || len(rep.Errors) != 3 {
		t.Fatalf("want 3 quarantined rows, got %+v", rep)
	}
	wantLines := []int{3, 5, 7}
	for i, re := range rep.Errors {
		if re.Line != wantLines[i] {
			t.Fatalf("error %d on line %d, want %d (%v)", i, re.Line, wantLines[i], re)
		}
		if re.Error() == "" {
			t.Fatal("empty row error string")
		}
	}
	// The strict loader must reject the same input.
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("strict loader accepted corrupt input")
	}
	// The survivors are the uncorrupted records, in order.
	for i, sec := range []int{0, 2, 4} {
		if got.Records[i].Second != sec {
			t.Fatalf("survivor %d has second %d, want %d", i, got.Records[i].Second, sec)
		}
	}
}

func TestReadCSVLenientCapsStoredErrors(t *testing.T) {
	d := &Dataset{}
	d.Append(mkRecord("Airport", 0, 0, 1))
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	in := buf.String()
	for i := 0; i < maxStoredRowErrors+10; i++ {
		in += "junk,row\n"
	}
	_, rep, err := ReadCSVLenient(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != maxStoredRowErrors+10 {
		t.Fatalf("quarantined %d, want %d", rep.Quarantined, maxStoredRowErrors+10)
	}
	if len(rep.Errors) != maxStoredRowErrors {
		t.Fatalf("stored %d errors, want cap %d", len(rep.Errors), maxStoredRowErrors)
	}
}

func TestReadCSVLenientBadHeaderFatal(t *testing.T) {
	if _, _, err := ReadCSVLenient(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Fatal("bad header must stay fatal in lenient mode")
	}
}

func TestCSVWriterIncremental(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 4; i++ {
		d.Append(mkRecord("Airport", 0, i, float64(10*i)))
	}
	var whole, parts bytes.Buffer
	if err := d.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	w := NewCSVWriter(&parts)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(d.Records[:2]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(d.Records[2:]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if whole.String() != parts.String() {
		t.Fatal("incremental writer output differs from WriteCSV")
	}
}
