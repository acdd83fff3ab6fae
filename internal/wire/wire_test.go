package wire

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

func f(v float64) *float64 { return &v }

func sampleQueries() []Query {
	return []Query{
		{Lat: 44.88, Lon: -93.22, Speed: f(4), Bearing: f(10)},
		{Lat: -12.5, Lon: 170.0},
		{Lat: 0, Lon: 0, Speed: f(0)},
		{Lat: 89.999, Lon: -179.999, Bearing: f(-360)},
		{Lat: 1, Lon: 2, Speed: f(500), Bearing: f(359.5)},
		{Lat: 3, Lon: 4},
		{Lat: 5, Lon: 6, Speed: f(12.25)},
		{Lat: 7, Lon: 8, Bearing: f(0)},
		{Lat: 9, Lon: 10, Speed: f(1), Bearing: f(2)}, // 9 rows: bitmap spills a byte
	}
}

func sampleResults() []Result {
	return []Result{
		{Mbps: 812.5, Class: "High", Source: "L+M", Tier: 0},
		{Mbps: 101.25, Class: "Low", Source: "L", Tier: 1, Degraded: true, Missing: []string{"speed", "bearing"}},
		{Mbps: 450, Class: "Medium", Source: "map-cell", Tier: -1, Degraded: true},
		{Mbps: 333.75, Class: "Medium", Source: "L+M", Tier: 0, Missing: []string{"speed"}},
	}
}

func TestQueryRoundTrip(t *testing.T) {
	qs := sampleQueries()
	frame := AppendQueries(nil, qs)
	back, err := DecodeQueries(frame, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(qs) {
		t.Fatalf("rows %d != %d", len(back), len(qs))
	}
	for i := range qs {
		if back[i].Lat != qs[i].Lat || back[i].Lon != qs[i].Lon {
			t.Fatalf("row %d coords", i)
		}
		checkOpt := func(name string, a, b *float64) {
			if (a == nil) != (b == nil) {
				t.Fatalf("row %d %s presence lost", i, name)
			}
			if a != nil && *a != *b {
				t.Fatalf("row %d %s %v != %v", i, name, *a, *b)
			}
		}
		checkOpt("speed", back[i].Speed, qs[i].Speed)
		checkOpt("bearing", back[i].Bearing, qs[i].Bearing)
	}
	// Determinism: re-encoding the decoded rows is byte-identical.
	if again := AppendQueries(nil, back); !bytes.Equal(again, frame) {
		t.Fatal("request frame is not deterministic under decode/encode")
	}
}

// TestFinite pins the one servability rule: an answer is finite only
// when Mbps, P10 and P90 all are, so NaN, +Inf or -Inf in any one of
// them makes it unservable.
func TestFinite(t *testing.T) {
	ok := Result{Mbps: 42, P10: 30, P90: 55}
	if !ok.Finite() {
		t.Fatalf("%+v is finite", ok)
	}
	fields := []struct {
		name string
		set  func(*Result, float64)
	}{
		{"mbps", func(r *Result, v float64) { r.Mbps = v }},
		{"p10", func(r *Result, v float64) { r.P10 = v }},
		{"p90", func(r *Result, v float64) { r.P90 = v }},
	}
	for _, fd := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s=%v", fd.name, v), func(t *testing.T) {
				r := ok
				fd.set(&r, v)
				if r.Finite() {
					t.Fatalf("%+v reports finite", r)
				}
			})
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	rs := sampleResults()
	frame, err := AppendResults(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResults(frame, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rs) {
		t.Fatalf("rows %d != %d", len(back), len(rs))
	}
	for i := range rs {
		a, b := rs[i], back[i]
		if a.Mbps != b.Mbps || a.Class != b.Class || a.Source != b.Source ||
			a.Tier != b.Tier || a.Degraded != b.Degraded || len(a.Missing) != len(b.Missing) {
			t.Fatalf("row %d: %+v != %+v", i, a, b)
		}
		for j := range a.Missing {
			if a.Missing[j] != b.Missing[j] {
				t.Fatalf("row %d missing[%d]", i, j)
			}
		}
	}
	// The merge-path property: re-encoding decoded rows reproduces the
	// frame exactly (string table rebuilt in first-use order).
	again, err := AppendResults(nil, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) {
		t.Fatal("response frame is not deterministic under decode/encode")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	qs := sampleQueries()
	frame := AppendQueries(nil, qs)
	if _, err := DecodeQueries(nil, 10); err == nil {
		t.Fatal("nil frame must error")
	}
	if _, err := DecodeQueries(frame[:len(frame)-3], 4096); err == nil {
		t.Fatal("truncated frame must error")
	}
	if _, err := DecodeQueries(append(frame, 9), 4096); err == nil {
		t.Fatal("trailing bytes must error")
	}
	if _, err := DecodeQueries(frame, len(qs)-1); err == nil {
		t.Fatal("row count over limit must error")
	}
	bad := append([]byte(nil), frame...)
	bad[4] = 99
	if _, err := DecodeQueries(bad, 4096); err == nil {
		t.Fatal("unknown version must error")
	}
	rframe, err := AppendResults(nil, sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResults(rframe[:11], 4096); err == nil {
		t.Fatal("truncated response must error")
	}
	if _, err := DecodeResults(rframe, 1); err == nil {
		t.Fatal("response rows over limit must error")
	}
	if _, err := DecodeQueries(rframe, 4096); err == nil {
		t.Fatal("response frame is not a request frame")
	}
}

func TestAppendResultsBounds(t *testing.T) {
	if _, err := AppendResults(nil, []Result{{Tier: math.MaxInt16 + 1, Class: "c", Source: "s"}}); err == nil {
		t.Fatal("tier out of int16 range must error")
	}
	many := make([]Result, 300)
	for i := range many {
		many[i] = Result{Class: string(rune('a' + i%26)), Source: string([]byte{byte(i), byte(i >> 8), 'x'})}
	}
	if _, err := AppendResults(nil, many); err == nil {
		t.Fatal("string-table overflow must error")
	}
}

// TestResultCodecAllocsFlat: encoding and decoding are per batch, not
// per row — a Missing slice shared across rows is resolved once on
// encode and decoded into one shared slice — so 256 degraded rows
// allocate no more than 16 do.
func TestResultCodecAllocsFlat(t *testing.T) {
	noSpeed := []string{"moving_speed", "compass_sin", "compass_cos"}
	noBearing := []string{"compass_sin", "compass_cos"}
	rows := func(n int) []Result {
		rs := make([]Result, n)
		for i := range rs {
			rs[i] = Result{Mbps: float64(i), Class: "Low", Source: "L", Tier: 1, Degraded: true,
				Missing: noSpeed, P10: 0, P90: float64(2 * i), HasInterval: true}
			if i%3 == 0 {
				rs[i].Missing, rs[i].Source = noBearing, "HM"
			}
		}
		return rs
	}
	allocs := func(n int) (enc, dec float64) {
		rs := rows(n)
		frame, err := AppendResultsIntervals(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 2*len(frame))
		enc = testing.AllocsPerRun(50, func() { _, _ = AppendResultsIntervals(buf[:0], rs) })
		dec = testing.AllocsPerRun(50, func() { _, _ = DecodeResults(frame, n) })
		return enc, dec
	}
	encSmall, decSmall := allocs(16)
	encBig, decBig := allocs(256)
	if encBig > encSmall {
		t.Fatalf("AppendResultsIntervals allocates %v times for 256 rows, %v for 16", encBig, encSmall)
	}
	if decBig > decSmall {
		t.Fatalf("DecodeResults allocates %v times for 256 rows, %v for 16", decBig, decSmall)
	}
}
