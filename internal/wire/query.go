package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/url"
	"strconv"
	"strings"
)

// The query contract of the prediction API: its bounds, its parameter
// ranges, the two request parsers and the one answer-negotiation rule.
// A replica (internal/mapserver) and the fleet router (internal/fleet)
// both apply exactly these, so a request the router admits is one every
// replica admits, and both answer it in the same form.

const (
	// MaxBatchRows bounds the rows of one /predict/batch request (the
	// body bound limits the bytes; this limits the work).
	MaxBatchRows = 4096
	// MaxBodyBytes bounds one request body (/predict/batch, /ingest).
	MaxBodyBytes = 1 << 20
)

// param is one query field: its query-string key, its name in error
// messages and its accepted range.
type param struct {
	key, label string
	lo, hi     float64
}

var (
	paramLat     = param{"lat", "lat", -90, 90}
	paramLon     = param{"lon", "lon", -180, 180}
	paramSpeed   = param{"speed", "speed (km/h)", 0, 500}
	paramBearing = param{"bearing", "bearing (degrees)", -360, 360}
)

// check rejects a non-finite or out-of-range value.
func (p param) check(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < p.lo || v > p.hi {
		return fmt.Errorf("%s must be in [%g, %g]", p.label, p.lo, p.hi)
	}
	return nil
}

// parse reads one raw parameter value as a number within range.
func (p param) parse(raw string) (float64, error) {
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%s must be a number", p.label)
	}
	return v, p.check(v)
}

// Validate reports the first field of q outside the API's ranges: lat
// in [-90, 90], lon in [-180, 180] and, when present, speed in
// [0, 500] km/h and bearing in [-360, 360] degrees, all finite.
func (q Query) Validate() error {
	if err := paramLat.check(q.Lat); err != nil {
		return err
	}
	if err := paramLon.check(q.Lon); err != nil {
		return err
	}
	if q.Speed != nil {
		if err := paramSpeed.check(*q.Speed); err != nil {
			return err
		}
	}
	if q.Bearing != nil {
		return paramBearing.check(*q.Bearing)
	}
	return nil
}

// Point is one parsed GET /predict query. The optional sensors are
// value-typed, set only when HasSpeed / HasBearing, so parsing
// allocates nothing.
type Point struct {
	Lat, Lon             float64
	Speed, Bearing       float64
	HasSpeed, HasBearing bool
	// Intervals reports the interval negotiation: ?intervals=1 or
	// ?intervals=true.
	Intervals bool
}

// Query returns p as a batch row; its sensor pointers point into p.
func (p *Point) Query() Query {
	q := Query{Lat: p.Lat, Lon: p.Lon}
	if p.HasSpeed {
		q.Speed = &p.Speed
	}
	if p.HasBearing {
		q.Bearing = &p.Bearing
	}
	return q
}

// ParsePredict parses the raw query string of GET /predict. lat and lon
// are required; speed and bearing are optional, but a present,
// malformed one is still an error. Every accepted Point satisfies
// Query().Validate(). The error text is client-facing.
func ParsePredict(rawQuery string) (Point, error) {
	var p Point
	var err error
	if p.Lat, err = paramLat.parse(queryValue(rawQuery, paramLat.key)); err != nil {
		return Point{}, err
	}
	if p.Lon, err = paramLon.parse(queryValue(rawQuery, paramLon.key)); err != nil {
		return Point{}, err
	}
	if raw := queryValue(rawQuery, paramSpeed.key); raw != "" {
		if p.Speed, err = paramSpeed.parse(raw); err != nil {
			return Point{}, err
		}
		p.HasSpeed = true
	}
	if raw := queryValue(rawQuery, paramBearing.key); raw != "" {
		if p.Bearing, err = paramBearing.parse(raw); err != nil {
			return Point{}, err
		}
		p.HasBearing = true
	}
	p.Intervals = wantIntervals(rawQuery)
	return p, nil
}

// queryValue scans a raw query string for key and returns its first
// value: what url.Values.Get returns, minus the per-request url.Values
// map (values come back as substrings, so the scan allocates only to
// unescape). Three rules part it from net/url, and each matters only
// for a query no well-formed client sends:
//   - keys match byte for byte, without unescaping;
//   - ';' is an ordinary byte, not a reason to drop the pair;
//   - only key=value pairs count, and the first one for key decides: a
//     bare key is skipped, and a malformed escape reads "".
func queryValue(rawQuery, key string) string {
	for len(rawQuery) > 0 {
		pair := rawQuery
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			pair, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 || pair[:eq] != key {
			continue
		}
		v := pair[eq+1:]
		if strings.ContainsAny(v, "%+") {
			u, err := url.QueryUnescape(v)
			if err != nil {
				return ""
			}
			return u
		}
		return v
	}
	return ""
}

// wantIntervals reports ?intervals=1 or ?intervals=true.
func wantIntervals(rawQuery string) bool {
	v := queryValue(rawQuery, "intervals")
	return v == "1" || v == "true"
}

// DecodeBatch reads one /predict/batch request body: a binary request
// frame when contentType is ContentType, a JSON array of
// {lat, lon[, speed][, bearing]} objects otherwise. Either encoding
// must end where its request ends: a frame with trailing bytes, or an
// array followed by more than whitespace, is rejected. It enforces
// MaxBatchRows and validates every row; the error text is
// client-facing. The caller bounds the body's bytes (MaxBodyBytes),
// and the body is read once, into a pooled buffer. A JSON body in the
// form every encoder of []Query emits is scanned (scanQueries); any
// other goes to DecodeJSON, so both accept the same bodies and decode
// the same bits.
func DecodeBatch(contentType string, body io.Reader) ([]Query, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	_, rerr := buf.ReadFrom(body)
	var qs []Query
	if contentType == ContentType {
		if rerr != nil {
			return nil, errors.New("unreadable request body")
		}
		var err error
		if qs, err = DecodeQueries(buf.Bytes(), MaxBatchRows); err != nil {
			return nil, err
		}
	} else {
		// A read error fails DecodeJSON too: it reads to EOF.
		if rerr != nil {
			return nil, errJSONBatch
		}
		var err error
		if qs, err = decodeJSONBatch(buf.Bytes()); err != nil {
			return nil, errJSONBatch
		}
	}
	if err := checkBatch(qs); err != nil {
		return nil, err
	}
	return qs, nil
}

// decodeJSONBatch scans b, or decodes it through DecodeJSON when it is
// outside the scanner's form.
func decodeJSONBatch(b []byte) ([]Query, error) {
	if qs, ok := scanQueries(b); ok {
		return qs, nil
	}
	var qs []Query
	err := DecodeJSON(bytes.NewReader(b), &qs)
	return qs, err
}

// errJSONBatch answers every JSON batch body that does not decode.
var errJSONBatch = errors.New("body must be a JSON array of {lat, lon[, speed][, bearing]} queries")

// checkBatch applies the batch bounds and validates every row.
func checkBatch(qs []Query) error {
	if len(qs) == 0 {
		return errors.New("empty batch")
	}
	if len(qs) > MaxBatchRows {
		return fmt.Errorf("batch of %d exceeds the %d-query limit", len(qs), MaxBatchRows)
	}
	for i := range qs {
		if err := qs[i].Validate(); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// Form is the negotiated form of a /predict/batch answer.
type Form struct {
	// Binary selects a response frame; JSON otherwise.
	Binary bool
	// Intervals selects the band: the version-2 frame, or the
	// p10/p50/p90 fields on every JSON row.
	Intervals bool
}

// Negotiate is the API's one answer-negotiation rule, whatever the
// request's own encoding: the answer is binary exactly when Accept is
// ContentType or ContentTypeIntervals, and carries the band when Accept
// is ContentTypeIntervals or the query has intervals=1 or
// intervals=true. So Accept: ContentType plus ?intervals=1 is answered
// with the version-2 frame, like Accept: ContentTypeIntervals.
func Negotiate(accept, rawQuery string) Form {
	return Form{
		Binary:    accept == ContentType || accept == ContentTypeIntervals,
		Intervals: accept == ContentTypeIntervals || wantIntervals(rawQuery),
	}
}

// ContentType is the media type of f's binary frame: ContentTypeIntervals
// for the version-2 frame, ContentType for version 1.
func (f Form) ContentType() string {
	if f.Intervals {
		return ContentTypeIntervals
	}
	return ContentType
}

// AppendFrame appends f's binary response frame for rs: version 2 when
// f carries intervals, version 1 otherwise.
func (f Form) AppendFrame(dst []byte, rs []Result) ([]byte, error) {
	if f.Intervals {
		return AppendResultsIntervals(dst, rs)
	}
	return AppendResults(dst, rs)
}
