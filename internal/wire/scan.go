package wire

import (
	"bytes"
	"strconv"
)

// scanQueries decodes a JSON /predict/batch body in the form every
// encoder of []Query emits (encoding/json, the e2ebench and lumosload
// clients): an array of objects whose members are the exact keys lat,
// lon, speed and bearing, in any order, each holding a JSON number,
// with JSON whitespace between tokens and nothing but whitespace after
// the array. A repeated key keeps its last value and an absent sensor
// stays nil, as in encoding/json. The present sensors share one slab.
//
// ok is false, and qs meaningless, for any other body: other key
// spellings or escapes, unknown members, null, strings, nested values,
// a number strconv.ParseFloat rejects, malformed JSON, trailing bytes,
// or more than MaxBatchRows objects. Those bodies go to
// DecodeJSON, the decoder of record; on every body scanQueries takes,
// it returns the rows DecodeJSON would, bit for bit (FuzzDecodeBatch).
func scanQueries(b []byte) (qs []Query, ok bool) {
	// Every '{' of a body in this form opens one row, so the count sizes
	// the rows exactly and bounds the allocation before any is made.
	n := bytes.Count(b, []byte{'{'})
	if n > MaxBatchRows {
		return nil, false
	}
	qs = make([]Query, 0, n)
	var slab []float64 // row r's speed at 2r, bearing at 2r+1
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '[' {
		return nil, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return qs, skipSpace(b, i+1) == len(b)
	}
	for {
		if i == len(b) || b[i] != '{' {
			return nil, false
		}
		r := len(qs)
		qs = qs[:r+1]
		q := &qs[r]
		if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
			i++
		} else {
			for {
				var key []byte
				if key, i, ok = scanKey(b, i); !ok {
					return nil, false
				}
				if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
					return nil, false
				}
				var v float64
				if v, i, ok = scanNumber(b, skipSpace(b, i+1)); !ok {
					return nil, false
				}
				switch string(key) {
				case "lat":
					q.Lat = v
				case "lon":
					q.Lon = v
				case "speed", "bearing":
					if slab == nil {
						slab = make([]float64, 2*n)
					}
					p := &slab[2*r]
					if key[0] == 'b' {
						p = &slab[2*r+1]
						q.Bearing = p
					} else {
						q.Speed = p
					}
					*p = v
				default:
					return nil, false
				}
				if i = skipSpace(b, i); i == len(b) {
					return nil, false
				}
				if b[i] == '}' {
					i++
					break
				}
				if b[i] != ',' {
					return nil, false
				}
				i = skipSpace(b, i+1)
			}
		}
		if i = skipSpace(b, i); i == len(b) {
			return nil, false
		}
		if b[i] == ']' {
			return qs, skipSpace(b, i+1) == len(b)
		}
		if b[i] != ',' {
			return nil, false
		}
		i = skipSpace(b, i+1)
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// scanKey reads the member name that opens at b[i] and returns its raw
// bytes and the index after its closing quote. A name holding an escape
// is not read: no key of the form has one.
func scanKey(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '"':
			return b[i+1 : j], j + 1, true
		case '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanNumber reads the JSON number that starts at b[i] and returns its
// value and the index after it. The text must match JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, before it reaches
// strconv.ParseFloat, which alone would also take "0x10", "1_0", "Inf"
// or "+1"; a number ParseFloat rejects (out of range) is not read.
func scanNumber(b []byte, i int) (float64, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0, 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return v, i, true
}

// skipDigits returns the index of the first byte at or after i that is
// not an ASCII digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
