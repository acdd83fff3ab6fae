package mapserver

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestAppendPredictResponseMatchesStdlib pins the hand-rolled wire
// encoder to encoding/json byte for byte: every float form the
// standard library special-cases, every string escape class (JSON
// escapes, HTML escaping, invalid UTF-8, U+2028/U+2029), and the
// omitempty boundary of the missing list.
func TestAppendPredictResponseMatchesStdlib(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 123.456, -981.25, 0.125,
		1e-6, 9.999e-7, 1e-7, 5e-324, 1e21, 1e20 * 9.999, -1e21, 2.5e30,
		math.MaxFloat64, -math.MaxFloat64, 1234.000244140625, 888.125,
		1e-21, 3.14159265358979, 7e+100,
	}
	strs := []string{
		"", "L+M", "map-cell", "gbdt-l+m", "plain ascii",
		"quote\"back\\slash", "tab\tnew\nret\r", "ctl\x01\x1f",
		"html<&>", "uni\u00e9\u4e16\u754c", "bad\xffutf8", "trunc\xc3",
		"sep\u2028and\u2029end", "emoji\U0001F600",
	}
	missing := [][]string{nil, {}, {"speed"}, {"speed", "bearing"}, {"we<ird&"}}
	var i int
	for _, f := range floats {
		for _, s := range strs {
			resp := predictResponse{
				Mbps:     f,
				Class:    s,
				Group:    strs[i%len(strs)],
				Source:   strs[(i+3)%len(strs)],
				Tier:     i%5 - 1,
				Degraded: i%2 == 0,
				Missing:  missing[i%len(missing)],
			}
			i++
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			got := appendPredict(nil, resp, band{}, false)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoder diverges for %+v:\n got %s\nwant %s", resp, got, want)
			}
		}
	}
}

// TestMarshalResponseMatchesEncoder pins the cached wire body to what
// json.Encoder.Encode would emit (trailing newline included): the
// byte-identity contract between cached hits, uncached recomputes and
// the pre-cache wire format.
func TestMarshalResponseMatchesEncoder(t *testing.T) {
	resp := predictResponse{Mbps: 432.1875, Class: "High", Group: "L+M", Source: "L+M", Tier: 0}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if got := marshalPredict(resp, band{}, false); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("marshalPredict %q != json.Encoder %q", got, buf.Bytes())
	}
}

// TestBatchBodyMatchesStdlib pins the batch array rendering to
// json.Encoder of []predictResponse.
func TestBatchBodyMatchesStdlib(t *testing.T) {
	out := []predictResponse{
		{Mbps: 100.5, Class: "Low", Group: "L", Source: "L", Tier: 1},
		{Mbps: 901.25, Class: "High", Group: "L+M", Source: "L+M", Tier: 0, Degraded: true, Missing: []string{"speed"}},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	b := []byte{'['}
	for i := range out {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPredict(b, out[i], band{}, false)
	}
	b = append(b, ']', '\n')
	if !bytes.Equal(b, buf.Bytes()) {
		t.Fatalf("batch body %q != json.Encoder %q", b, buf.Bytes())
	}
}
