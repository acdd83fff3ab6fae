package wire

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// fuzzLimit bounds the row count the fuzzed decoders accept.
const fuzzLimit = 64

// FuzzDecodeQueries: arbitrary bytes must never panic, must respect the
// row limit, must decode exactly as the reference row-by-row decoder
// does (bitmap padding bits included: they stay ignored), and decoded
// rows must survive an encode/decode round trip unchanged.
func FuzzDecodeQueries(f *testing.F) {
	qs := sampleQueries()
	f.Add(AppendQueries(nil, qs))
	f.Add(AppendQueries(nil, qs[:1]))
	f.Add(AppendQueries(nil, nil))
	// Nine rows: both bitmaps carry seven padding bits; set them all.
	padded := AppendQueries(nil, qs)
	padded[9+16*len(qs)+1] |= 0xfe
	f.Add(padded)
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeQueries(b, fuzzLimit)
		want, werr := refDecodeQueries(b, fuzzLimit)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode error %v, reference error %v", err, werr)
		}
		if err != nil {
			return
		}
		if len(got) > fuzzLimit {
			t.Fatalf("%d rows past the limit %d", len(got), fuzzLimit)
		}
		if !equalQueries(got, want) {
			t.Fatalf("decode differs from the reference decoder")
		}
		back, err := DecodeQueries(AppendQueries(nil, got), fuzzLimit)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !equalQueries(back, got) {
			t.Fatalf("decode → encode → decode changed the rows")
		}
	})
}

// FuzzDecodeResults: arbitrary bytes must never panic, must respect the
// row limit, must decode exactly as the reference row-by-row decoder
// does — in particular rows sharing one decoded Missing slice must each
// carry their own run's names — and decoded rows must survive an
// encode/decode round trip unchanged.
func FuzzDecodeResults(f *testing.F) {
	point, _ := AppendResults(nil, sampleResults())
	f.Add(point)
	ival, _ := AppendResultsIntervals(nil, sampleIntervalResults())
	f.Add(ival)
	shared := []string{"moving_speed", "compass_sin"}
	other := []string{"compass_sin"}
	rs := []Result{
		{Mbps: 1, Class: "Low", Source: "L", Tier: 1, Degraded: true, Missing: shared},
		{Mbps: 2, Class: "Low", Source: "L", Tier: 1, Degraded: true, Missing: other},
		{Mbps: 3, Class: "Low", Source: "HM", Tier: 2, Degraded: true, Missing: shared},
		{Mbps: 4, Class: "High", Source: "L+M", Tier: 0},
		{Mbps: 5, Class: "Low", Source: "L", Tier: 1, Degraded: true, Missing: shared[:1]},
	}
	sharedFrame, _ := AppendResultsIntervals(nil, rs)
	f.Add(sharedFrame)
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeResults(b, fuzzLimit)
		want, werr := refDecodeResults(b, fuzzLimit)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode error %v, reference error %v", err, werr)
		}
		if err != nil {
			return
		}
		if len(got) > fuzzLimit {
			t.Fatalf("%d rows past the limit %d", len(got), fuzzLimit)
		}
		if !equalResults(got, want) {
			t.Fatalf("decode differs from the reference decoder")
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				a, b := got[i].Missing, got[j].Missing
				if len(a) > 0 && len(b) > 0 && &a[0] == &b[0] && !equalStrings(want[i].Missing, want[j].Missing) {
					t.Fatalf("rows %d and %d share a Missing slice but carry different runs", i, j)
				}
			}
		}
		encode := AppendResults
		if b[4] == VersionIntervals {
			encode = AppendResultsIntervals
		}
		frame, err := encode(nil, got)
		if err != nil {
			t.Fatalf("re-encode decoded rows: %v", err)
		}
		back, err := DecodeResults(frame, fuzzLimit)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !equalResults(back, got) {
			t.Fatalf("decode → encode → decode changed the rows")
		}
	})
}

func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameOpt(a, b *float64) bool {
	return (a == nil) == (b == nil) && (a == nil || sameF64(*a, *b))
}

func equalQueries(a, b []Query) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameF64(a[i].Lat, b[i].Lat) || !sameF64(a[i].Lon, b[i].Lon) ||
			!sameOpt(a[i].Speed, b[i].Speed) || !sameOpt(a[i].Bearing, b[i].Bearing) {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !sameF64(x.Mbps, y.Mbps) || x.Class != y.Class || x.Source != y.Source ||
			x.Tier != y.Tier || x.Degraded != y.Degraded || !equalStrings(x.Missing, y.Missing) ||
			!sameF64(x.P10, y.P10) || !sameF64(x.P90, y.P90) || x.HasInterval != y.HasInterval {
			return false
		}
	}
	return true
}

// refDecodeQueries is the straightforward row-by-row request decoder
// (one allocation per present optional value), kept as the oracle the
// slab decoder must agree with.
func refDecodeQueries(b []byte, maxQueries int) ([]Query, error) {
	if len(b) < len(reqMagic)+1+4 {
		return nil, errTruncated
	}
	if string(b[:4]) != reqMagic {
		return nil, errors.New("wire: not a batch request frame")
	}
	if b[4] != Version {
		return nil, fmt.Errorf("wire: unsupported request frame version %d", b[4])
	}
	n := int(readU32(b[5:]))
	if n < 0 || n > maxQueries {
		return nil, fmt.Errorf("wire: frame declares %d queries, limit %d", n, maxQueries)
	}
	b = b[9:]
	if len(b) < 16*n {
		return nil, errTruncated
	}
	qs := make([]Query, n)
	for i := 0; i < n; i++ {
		qs[i].Lat = readF64(b[8*i:])
	}
	b = b[8*n:]
	for i := 0; i < n; i++ {
		qs[i].Lon = readF64(b[8*i:])
	}
	b = b[8*n:]
	readOptional := func(b []byte, set func(int, float64)) ([]byte, error) {
		bl := bitmapLen(n)
		if len(b) < bl {
			return nil, errTruncated
		}
		bm := b[:bl]
		b = b[bl:]
		for i := 0; i < n; i++ {
			if bm[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			if len(b) < 8 {
				return nil, errTruncated
			}
			set(i, readF64(b))
			b = b[8:]
		}
		return b, nil
	}
	var err error
	if b, err = readOptional(b, func(i int, v float64) { qs[i].Speed = &v }); err != nil {
		return nil, err
	}
	if b, err = readOptional(b, func(i int, v float64) { qs[i].Bearing = &v }); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, errors.New("wire: trailing bytes after request frame")
	}
	return qs, nil
}

// refDecodeResults is the straightforward row-by-row response decoder
// (a fresh Missing slice per row), kept as the oracle the run-sharing
// decoder must agree with.
func refDecodeResults(b []byte, maxResults int) ([]Result, error) {
	if len(b) < len(respMagic)+1+4+1 {
		return nil, errTruncated
	}
	if string(b[:4]) != respMagic {
		return nil, errors.New("wire: not a batch response frame")
	}
	version := b[4]
	if version != Version && version != VersionIntervals {
		return nil, fmt.Errorf("wire: unsupported response frame version %d", version)
	}
	n := int(readU32(b[5:]))
	if n < 0 || n > maxResults {
		return nil, fmt.Errorf("wire: frame declares %d results, limit %d", n, maxResults)
	}
	b = b[9:]
	nstr := int(b[0])
	b = b[1:]
	table := make([]string, nstr)
	for i := 0; i < nstr; i++ {
		if len(b) < 1 || len(b) < 1+int(b[0]) {
			return nil, errTruncated
		}
		l := int(b[0])
		table[i] = string(b[1 : 1+l])
		b = b[1+l:]
	}
	if len(b) < 8*n+2*n+n+n+bitmapLen(n) {
		return nil, errTruncated
	}
	lookup := func(idx byte) (string, error) {
		if int(idx) >= len(table) {
			return "", fmt.Errorf("wire: string index %d outside table of %d", idx, len(table))
		}
		return table[idx], nil
	}
	rs := make([]Result, n)
	var err error
	for i := 0; i < n; i++ {
		rs[i].Mbps = readF64(b[8*i:])
		rs[i].Tier = int(int16(uint16(b[8*n+2*i]) | uint16(b[8*n+2*i+1])<<8))
		if rs[i].Class, err = lookup(b[10*n+i]); err != nil {
			return nil, err
		}
		if rs[i].Source, err = lookup(b[11*n+i]); err != nil {
			return nil, err
		}
		rs[i].Degraded = b[12*n+i/8]&(1<<(i%8)) != 0
	}
	b = b[12*n+bitmapLen(n):]
	for i := 0; i < n; i++ {
		if len(b) < 1 || len(b) < 1+int(b[0]) {
			return nil, errTruncated
		}
		cnt := int(b[0])
		for j := 0; j < cnt; j++ {
			name, err := lookup(b[1+j])
			if err != nil {
				return nil, err
			}
			rs[i].Missing = append(rs[i].Missing, name)
		}
		b = b[1+cnt:]
	}
	if version >= VersionIntervals {
		if len(b) < 16*n+bitmapLen(n) {
			return nil, errTruncated
		}
		for i := 0; i < n; i++ {
			rs[i].P10 = readF64(b[8*i:])
			rs[i].P90 = readF64(b[8*n+8*i:])
			rs[i].HasInterval = b[16*n+i/8]&(1<<(i%8)) != 0
		}
		b = b[16*n+bitmapLen(n):]
	} else {
		for i := range rs {
			rs[i].P10, rs[i].P90 = rs[i].Mbps, rs[i].Mbps
		}
	}
	if len(b) != 0 {
		return nil, errors.New("wire: trailing bytes after response frame")
	}
	return rs, nil
}
