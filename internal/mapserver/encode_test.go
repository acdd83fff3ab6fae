package mapserver

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"lumos5g/internal/wire"
)

// predictResponse is the stdlib reference for the /predict point wire
// form: json.Marshal of it is the oracle appendPredict is pinned to, and
// the end-to-end tests decode bodies into it. Group mirrors Source in
// every body the server emits.
type predictResponse struct {
	Mbps     float64  `json:"mbps"`
	Class    string   `json:"class"`
	Group    string   `json:"group"`
	Source   string   `json:"source"`
	Tier     int      `json:"tier"`
	Degraded bool     `json:"degraded"`
	Missing  []string `json:"missing,omitempty"`
}

// result is the engine answer whose point body r is, with the
// degenerate band at Mbps (a point body does not render the band).
func (r predictResponse) result() wire.Result {
	return wire.Result{
		Mbps: r.Mbps, Class: r.Class, Source: r.Source, Tier: r.Tier,
		Degraded: r.Degraded, Missing: r.Missing, P10: r.Mbps, P90: r.Mbps,
	}
}

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
			src := strs[(i+3)%len(strs)]
			resp := predictResponse{
				Mbps:     f,
				Class:    s,
				Group:    src,
				Source:   src,
				Tier:     i%5 - 1,
				Degraded: i%2 == 0,
				Missing:  missing[i%len(missing)],
			}
			i++
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			got := appendPredict(nil, resp.result(), false)
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
	if got := marshalPredict(resp.result(), false); !bytes.Equal(got, buf.Bytes()) {
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
		b = appendPredict(b, out[i].result(), false)
	}
	b = append(b, ']', '\n')
	if !bytes.Equal(b, buf.Bytes()) {
		t.Fatalf("batch body %q != json.Encoder %q", b, buf.Bytes())
	}
}
