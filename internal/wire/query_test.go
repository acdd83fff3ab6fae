package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// apiKeys are the query-string keys the prediction API reads.
var apiKeys = []string{"lat", "lon", "speed", "bearing", "intervals"}

// ruleValue states queryValue's documented semantics over net/url's own
// unescaping: the first key=value pair whose raw key is key decides,
// and a malformed escape reads "".
func ruleValue(raw, key string) string {
	for _, pair := range strings.Split(raw, "&") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k != key {
			continue
		}
		u, err := url.QueryUnescape(v)
		if err != nil {
			return ""
		}
		return u
	}
	return ""
}

// ruleApplies reports whether raw has a pair on which queryValue's
// stated rules part from net/url for key: an escaped key that unescapes
// to key, or a pair with key's raw name that has no '=', contains ';'
// or carries a malformed escape.
func ruleApplies(raw, key string) bool {
	for _, pair := range strings.Split(raw, "&") {
		k, v, hasEq := strings.Cut(pair, "=")
		if uk, err := url.QueryUnescape(k); err == nil && uk == key && k != key {
			return true
		}
		if k != key {
			continue
		}
		if _, err := url.QueryUnescape(v); !hasEq || err != nil || strings.Contains(pair, ";") {
			return true
		}
	}
	return false
}

// FuzzParsePredict: the GET /predict parser never panics, every query
// it accepts satisfies Query.Validate and carries exactly the values
// the scanner read, and for each key the API reads the scanner agrees
// with the first value net/url parses — except where one of its stated
// rules applies, and there it follows the rule.
func FuzzParsePredict(f *testing.F) {
	for _, s := range []string{
		"lat=44.8838&lon=-93.2100&speed=4.5&bearing=10",
		"lat=44.8838&lon=-93.2100&speed=4.5&bearing=10&intervals=1",
		"lat=44.8838&lon=-93.2100&speed=4.5&bearing=10&intervals=true",
		"lat=44.88383000&lon=-93.21000000&speed=4&bearing=10",
		"lat=45&lon=7",
		"lat=0&lon=0",
		"lat=999&lon=0",
		"lat=abc&lon=1",
		"lat=44.88&lon=-93.21&speed=abc",
		"lat=44.88&lon=-93.21&bearing=999",
		"",
		"lat=4%2E5&lon=1e1&speed=+4",
		"l%61t=1&lon=2",
		"lat=1;2&lon=3",
		"lat=%zz&lat=5&lon=0",
		"lat&lat=5&lon=0",
		"lat=NaN&lon=Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		std, _ := url.ParseQuery(raw)
		for _, key := range apiKeys {
			got := queryValue(raw, key)
			if want := ruleValue(raw, key); got != want {
				t.Fatalf("%q: scanner reads %s=%q, its rules say %q", raw, key, got, want)
			}
			if !ruleApplies(raw, key) && got != std.Get(key) {
				t.Fatalf("%q: scanner reads %s=%q, net/url %q", raw, key, got, std.Get(key))
			}
		}
		p, err := ParsePredict(raw)
		if err != nil {
			return
		}
		if verr := p.Query().Validate(); verr != nil {
			t.Fatalf("%q: accepted a query Validate rejects: %v", raw, verr)
		}
		same := func(key string, v float64, has bool) {
			s := queryValue(raw, key)
			if has != (s != "") {
				t.Fatalf("%q: %s present %v, scanner read %q", raw, key, has, s)
			}
			if w, err := strconv.ParseFloat(s, 64); has && (err != nil || math.Float64bits(w) != math.Float64bits(v)) {
				t.Fatalf("%q: %s = %v, scanner read %q", raw, key, v, s)
			}
		}
		same("lat", p.Lat, true)
		same("lon", p.Lon, true)
		same("speed", p.Speed, p.HasSpeed)
		same("bearing", p.Bearing, p.HasBearing)
		if iv := queryValue(raw, "intervals"); p.Intervals != (iv == "1" || iv == "true") {
			t.Fatalf("%q: intervals %v, scanner read %q", raw, p.Intervals, iv)
		}
	})
}

// TestParsePredictAllocs pins the hot path: parsing a well-formed
// /predict query allocates nothing.
func TestParsePredictAllocs(t *testing.T) {
	const raw = "lat=44.8838&lon=-93.2100&speed=4.5&bearing=10&intervals=1"
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParsePredict(raw); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParsePredict allocates %v times per query", n)
	}
}

// TestDecodeBatchAllocs pins the JSON batch path: a json.Marshal-ed
// 64-row body is scanned into the rows and one sensor slab, read
// through the pooled buffer (the third allocation is the test's
// bytes.Reader). Decoding it through encoding/json took 148.
func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so pool misses grow a fresh body buffer")
	}
	body := marshalRows(t, 64)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBatch("application/json", bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("DecodeBatch allocates %v times per 64-row JSON body", n)
	}
}

// TestNegotiate states the one negotiation rule cell by cell.
func TestNegotiate(t *testing.T) {
	for _, tc := range []struct {
		accept, query string
		want          Form
		ct            string
	}{
		{"", "", Form{}, ContentType},
		{"", "intervals=1", Form{Intervals: true}, ContentTypeIntervals},
		{"application/json", "intervals=true", Form{Intervals: true}, ContentTypeIntervals},
		{ContentType, "", Form{Binary: true}, ContentType},
		{ContentType, "intervals=1", Form{Binary: true, Intervals: true}, ContentTypeIntervals},
		{ContentType, "intervals=0", Form{Binary: true}, ContentType},
		{ContentTypeIntervals, "", Form{Binary: true, Intervals: true}, ContentTypeIntervals},
		{ContentType + ", " + ContentTypeIntervals, "", Form{}, ContentType},
	} {
		got := Negotiate(tc.accept, tc.query)
		if got != tc.want || got.ContentType() != tc.ct {
			t.Fatalf("Negotiate(%q, %q) = %+v (%s), want %+v (%s)", tc.accept, tc.query, got, got.ContentType(), tc.want, tc.ct)
		}
	}
}

// FuzzDecodeBatch: whatever the body, DecodeBatch never panics, every
// row it accepts passes Validate, it never accepts more than
// MaxBatchRows rows, and under both content types an accepted body ends
// the request: one more byte is rejected, except JSON whitespace after
// a JSON array, which decodes to the same rows. Under the JSON content
// type it answers exactly as the reference does (DecodeJSON, then the
// same bounds and Validate): the same acceptance, the same error text,
// and rows with the same bits and the same nil sensors; and on every
// body the scanner takes, its rows are DecodeJSON's.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range []string{
		// The mapserver and fleet handler tests' bodies.
		`[{"lat":44.883800,"lon":-93.210000,"speed":4.5,"bearing":10},{"lat":44.883800,"lon":-93.210000},{"lat":0,"lon":0}]`,
		`[{"lat":44.883800,"lon":-93.210000},{"lat":0,"lon":0}]`,
		`{"lat":`,
		`{"lat":1,"lon":2}`,
		`[]`,
		`[{"lat":91,"lon":0}]`,
		`[{"lat":0,"lon":-181}]`,
		`[{"lat":0,"lon":0,"speed":-1}]`,
		`[{"lat":0,"lon":0,"bearing":999}]`,
		`[{"lat":1,"lon":2}] this is not JSON`,
		"[{\"lat\":1,\"lon\":2}]\n",
		// The scanner's edges: its form, and what it leaves to DecodeJSON.
		`[{"bearing":10,"speed":4.5,"lon":-93.21,"lat":44.88}]`,
		" [ {\"lat\" : 1 ,\r\"lon\" :\t2 } , {} ]\r\n",
		`[{"speed":1,"lat":3,"speed":2,"lon":4,"lat":5}]`,
		`[{"lat":-0,"lon":-0.0e-0,"speed":0E+0}]`,
		`[{"lat":1e-400,"lon":12345678901234567890123456789e-28}]`,
		`[{"lat":1e400,"lon":0}]`,
		`[{"LAT":1,"lon":2}]`,
		`[{"l\u0061t":1,"lon":2}]`,
		`[{"lat":1,"lon":2,"x":{"a":[1,"}"]}}]`,
		`[{"lat":1,"lon":2,"speed":null}]`,
		`[null]`,
		`null`,
		`[{"lat":"1","lon":2}]`,
		`[{"lat":0x10,"lon":0}]`,
		`[{"lat":1_0,"lon":0}]`,
		`[{"lat":Inf,"lon":0}]`,
		`[{"lat":+1,"lon":0}]`,
		`[{"lat":01,"lon":0}]`,
		`[{"lat":1.,"lon":0}]`,
		`[{"lat":.5,"lon":0}]`,
		`[{"lat":1e,"lon":0}]`,
		`[{"lat":1,"lon":2,}]`,
		`[{"lat":1,"lon":2},]`,
		`[{"lat":1,"lon":2}]]`,
		`[{"lat" 1,"lon":2}]`,
	} {
		f.Add([]byte(s), byte('x'))
	}
	f.Add(marshalRows(f, 8), byte('\n'))
	f.Add(AppendQueries(nil, sampleQueries()), byte(' '))
	f.Fuzz(func(t *testing.T, body []byte, tail byte) {
		if sq, ok := scanQueries(body); ok {
			var want []Query
			if err := DecodeJSON(bytes.NewReader(body), &want); err != nil || !equalQueries(sq, want) {
				t.Fatalf("scanner took %q, DecodeJSON says %v", body, err)
			}
		}
		for _, ct := range []string{"application/json", ContentType} {
			qs, err := DecodeBatch(ct, bytes.NewReader(body))
			if ct != ContentType {
				want, werr := refDecodeBatchJSON(body)
				if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
					t.Fatalf("%q: error %v, reference error %v", body, err, werr)
				}
				if err == nil && !equalQueries(qs, want) {
					t.Fatalf("%q: rows differ from the reference decode", body)
				}
			}
			if err != nil {
				continue
			}
			if len(qs) == 0 || len(qs) > MaxBatchRows {
				t.Fatalf("%s: accepted %d rows", ct, len(qs))
			}
			for i := range qs {
				if err := qs[i].Validate(); err != nil {
					t.Fatalf("%s: accepted row %d fails Validate: %v", ct, i, err)
				}
			}
			again, err := DecodeBatch(ct, bytes.NewReader(append(bytes.Clone(body), tail)))
			jsonSpace := tail == ' ' || tail == '\t' || tail == '\n' || tail == '\r'
			switch {
			case ct != ContentType && jsonSpace:
				if err != nil || !equalQueries(again, qs) {
					t.Fatalf("%s: trailing %q changed the rows or failed: %v", ct, tail, err)
				}
			case err == nil:
				t.Fatalf("%s: accepted body plus trailing %q still accepted", ct, tail)
			}
		}
	})
}

// refDecodeBatchJSON is the reference decode of a JSON batch body:
// DecodeJSON alone, then the same bounds and row validation.
func refDecodeBatchJSON(body []byte) ([]Query, error) {
	var qs []Query
	if err := DecodeJSON(bytes.NewReader(body), &qs); err != nil {
		return nil, errJSONBatch
	}
	if err := checkBatch(qs); err != nil {
		return nil, err
	}
	return qs, nil
}

// marshalRows is a json.Marshal-ed batch of n walking rows near the
// Airport area, each with speed and bearing.
func marshalRows(tb testing.TB, n int) []byte {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Lat: 44.8838 + float64(i)*1e-5, Lon: -93.21 - float64(i)*3e-6,
			Speed: f(4.5 + float64(i)/8), Bearing: f(float64(i * 37 % 360))}
	}
	b, err := json.Marshal(qs)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestScanQueriesForms: what encoding/json emits for []Query, compact
// or indented, is scanned; the bodies that encoding/json also accepts
// but are outside the form are left to DecodeJSON and still decode
// through DecodeBatch, to the rows of their canonical twin.
func TestScanQueriesForms(t *testing.T) {
	indented, err := json.MarshalIndent(sampleQueries(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"json.Marshal": marshalRows(t, 64),
		"indented":     indented,
		"any order":    []byte(`[{"bearing":10,"speed":4.5,"lon":-93.21,"lat":44.88}]`),
	} {
		qs, ok := scanQueries(body)
		var want []Query
		if err := DecodeJSON(bytes.NewReader(body), &want); err != nil {
			t.Fatal(err)
		}
		if !ok || !equalQueries(qs, want) {
			t.Fatalf("%s: scanned %v, rows equal %v", name, ok, equalQueries(qs, want))
		}
	}
	for _, tc := range []struct{ body, twin string }{
		{`[{"LAT":44.88,"lon":-93.21}]`, `[{"lat":44.88,"lon":-93.21}]`},
		{`[{"l\u0061t":44.88,"lon":-93.21}]`, `[{"lat":44.88,"lon":-93.21}]`},
		{`[{"lat":44.88,"lon":-93.21,"note":{"by":"x"}}]`, `[{"lat":44.88,"lon":-93.21}]`},
		{`[{"lat":44.88,"lon":-93.21,"speed":null}]`, `[{"lat":44.88,"lon":-93.21}]`},
		{`[null]`, `[{"lat":0,"lon":0}]`},
	} {
		if _, ok := scanQueries([]byte(tc.body)); ok {
			t.Fatalf("%s: scanned, want it left to DecodeJSON", tc.body)
		}
		got, err := DecodeBatch("application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		want, err := DecodeBatch("application/json", strings.NewReader(tc.twin))
		if err != nil || !equalQueries(got, want) {
			t.Fatalf("%s: decodes unlike %s (%v)", tc.body, tc.twin, err)
		}
	}
}
