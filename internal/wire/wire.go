// Package wire implements the compact columnar binary encoding of the
// batch prediction API — the allocation- and bandwidth-lean alternative
// the server and the fleet router negotiate next to the JSON default.
//
// Frames are little-endian and fully deterministic: encoding the same
// logical queries or results always yields the same bytes, which is
// what lets the fleet router's scatter–gather re-encode shard answers
// into a merged frame byte-identical to a single server's (the string
// table is rebuilt in first-use row order on every encode).
//
// Request frame ("L5GB", version 1):
//
//	magic "L5GB" | u8 version | u32 n
//	f64 lat × n                        latitude column
//	f64 lon × n                        longitude column
//	bitmap ⌈n/8⌉                       speed-present bits (LSB-first)
//	f64 × popcount(bitmap)             speeds, packed in row order
//	bitmap ⌈n/8⌉                       bearing-present bits
//	f64 × popcount(bitmap)             bearings, packed in row order
//
// Response frame ("L5GR", version 1):
//
//	magic "L5GR" | u8 version | u32 n
//	u8 nstr | (u8 len, bytes) × nstr   string table, first-use order
//	f64 mbps × n
//	i16 tier × n
//	u8 class index × n                 into the string table
//	u8 source index × n                into the string table (group
//	                                   mirrors source on the wire)
//	bitmap ⌈n/8⌉                       degraded bits
//	(u8 count, u8 index × count) × n   missing features per row
//
// Response frame version 2 (negotiated via ContentTypeIntervals) is the
// version-1 layout followed by the uncertainty columns; the mbps column
// doubles as the p50:
//
//	f64 p10 × n
//	f64 p90 × n
//	bitmap ⌈n/8⌉                       calibrated-interval bits
package wire

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ContentType is the negotiated media type of both frame directions: a
// request carrying it as Content-Type is decoded as a binary frame, and
// a request carrying it as Accept is answered with one. Everything else
// stays JSON.
const ContentType = "application/x-lumos5g-batch"

// ContentTypeIntervals is the uncertainty-carrying response
// negotiation: a request whose Accept is exactly this string is
// answered with a version-2 response frame that carries p10/p90
// columns next to the mbps (p50) column. Request frames are the same
// either way — queries carry no intervals — so Content-Type stays
// ContentType.
const ContentTypeIntervals = "application/x-lumos5g-batch-intervals"

// Version is the frame version both directions currently speak.
const Version = 1

// VersionIntervals is the response frame version that appends the
// p10/p90 columns (requests have no version-2 form).
const VersionIntervals = 2

const (
	reqMagic  = "L5GB"
	respMagic = "L5GR"
)

// Query is one batch prediction query. Nil Speed/Bearing mean the
// sensor reading is absent (the chain demotes to a smaller tier),
// exactly like the JSON form's missing fields.
type Query struct {
	Lat, Lon       float64
	Speed, Bearing *float64
}

// Result is one batch prediction answer. Group is not carried — it
// mirrors Source on this wire, as documented on the JSON form. The
// interval fields ride only on version-2 frames (AppendResultsIntervals
// / ContentTypeIntervals); version-1 decodes leave them degenerate at
// Mbps with HasInterval false.
type Result struct {
	Mbps     float64
	Class    string
	Source   string
	Tier     int
	Degraded bool
	// Missing lists the unusable features that demoted the row. The
	// slice may be shared across rows (decoded rows with the same list
	// share one): it must not be modified.
	Missing []string
	// P10 and P90 bound the nominal 80% band around Mbps (the p50).
	P10, P90 float64
	// HasInterval distinguishes a calibrated band from the degenerate
	// zero-width triple served by uncalibrated tiers.
	HasInterval bool
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF64(dst []byte, f float64) []byte {
	v := math.Float64bits(f)
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readF64(b []byte) float64 {
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return math.Float64frombits(v)
}

// bitmapLen is the byte length of an n-bit LSB-first bitmap.
func bitmapLen(n int) int { return (n + 7) / 8 }

// AppendQueries appends the binary request frame for qs.
func AppendQueries(dst []byte, qs []Query) []byte {
	dst = append(dst, reqMagic...)
	dst = append(dst, Version)
	dst = appendU32(dst, uint32(len(qs)))
	for i := range qs {
		dst = appendF64(dst, qs[i].Lat)
	}
	for i := range qs {
		dst = appendF64(dst, qs[i].Lon)
	}
	appendOptional := func(dst []byte, get func(*Query) *float64) []byte {
		off := len(dst)
		dst = append(dst, make([]byte, bitmapLen(len(qs)))...)
		for i := range qs {
			if p := get(&qs[i]); p != nil {
				dst[off+i/8] |= 1 << (i % 8)
				dst = appendF64(dst, *p)
			}
		}
		return dst
	}
	dst = appendOptional(dst, func(q *Query) *float64 { return q.Speed })
	dst = appendOptional(dst, func(q *Query) *float64 { return q.Bearing })
	return dst
}

var errTruncated = errors.New("wire: truncated frame")

// DecodeQueries parses a binary request frame. maxQueries bounds the
// declared row count before any allocation sized from it.
func DecodeQueries(b []byte, maxQueries int) ([]Query, error) {
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
	var err error
	if b, err = readOptional(b, n, qs, func(q *Query, v *float64) { q.Speed = v }); err != nil {
		return nil, err
	}
	if b, err = readOptional(b, n, qs, func(q *Query, v *float64) { q.Bearing = v }); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, errors.New("wire: trailing bytes after request frame")
	}
	return qs, nil
}

// readOptional decodes one optional column (presence bitmap, then the
// present values packed in row order) into qs through set, and returns
// the rest of the frame. The present values share one slab. Bitmap bits
// past row n are padding and are ignored.
func readOptional(b []byte, n int, qs []Query, set func(*Query, *float64)) ([]byte, error) {
	bl := bitmapLen(n)
	if len(b) < bl {
		return nil, errTruncated
	}
	bm := b[:bl]
	b = b[bl:]
	present := 0
	for i, m := range bm {
		if i == bl-1 && n%8 != 0 {
			m &= 1<<(n%8) - 1
		}
		present += bits.OnesCount8(m)
	}
	if len(b) < 8*present {
		return nil, errTruncated
	}
	if present == 0 {
		return b, nil
	}
	slab := make([]float64, present)
	k := 0
	for i := 0; i < n; i++ {
		if bm[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		slab[k] = readF64(b[8*k:])
		set(&qs[i], &slab[k])
		k++
	}
	return b[8*present:], nil
}

// maxTableStrings and maxStringLen are the string-table bounds (both
// u8-indexed on the wire). Tier names, class names and feature names
// are short and few; hitting either bound means the caller is encoding
// something that is not a prediction response.
const (
	maxTableStrings = 255
	maxStringLen    = 255
)

// stringTable interns strings in first-use order for one encode pass.
type stringTable struct {
	idx   map[string]byte
	order []string
}

func (t *stringTable) intern(s string) (byte, error) {
	if i, ok := t.idx[s]; ok {
		return i, nil
	}
	if len(t.order) >= maxTableStrings {
		return 0, fmt.Errorf("wire: string table overflow (> %d distinct strings)", maxTableStrings)
	}
	if len(s) > maxStringLen {
		return 0, fmt.Errorf("wire: string %q exceeds %d bytes", s, maxStringLen)
	}
	if t.idx == nil {
		t.idx = make(map[string]byte, 8)
	}
	i := byte(len(t.order))
	t.idx[s] = i
	t.order = append(t.order, s)
	return i, nil
}

// AppendResults appends the version-1 binary response frame for rs
// (interval fields ignored). The string table is built in first-use row
// order, so re-encoding decoded rows reproduces the frame byte for
// byte — the property the fleet router's merge path relies on.
func AppendResults(dst []byte, rs []Result) ([]byte, error) {
	return appendResults(dst, rs, Version)
}

// AppendResultsIntervals appends the version-2 response frame: the
// version-1 layout plus p10/p90 columns and the calibrated bitmap.
// Deterministic like AppendResults, and byte-identical across encode
// sites for the same logical rows.
func AppendResultsIntervals(dst []byte, rs []Result) ([]byte, error) {
	return appendResults(dst, rs, VersionIntervals)
}

func appendResults(dst []byte, rs []Result, version byte) ([]byte, error) {
	n := len(rs)
	var tab stringTable
	classIdx := make([]byte, n)
	srcIdx := make([]byte, n)
	// Missing lists are interned per distinct slice (by backing array
	// and length): each is resolved against the string table once, into
	// a run of wire bytes — count, then table indices — in runs, and
	// every row carrying that slice points at its run. runs[0] is the
	// shared empty run, so a row without missing features points at 0.
	runs := []byte{0}
	var recent [8]missingRun
	nrecent := 0
	rowRun := make([]int32, n)
	for i := range rs {
		var err error
		if classIdx[i], err = tab.intern(rs[i].Class); err != nil {
			return nil, err
		}
		if srcIdx[i], err = tab.intern(rs[i].Source); err != nil {
			return nil, err
		}
		miss := rs[i].Missing
		if len(miss) > maxStringLen {
			return nil, fmt.Errorf("wire: %d missing features in one row", len(miss))
		}
		if len(miss) > 0 {
			key := missingRun{data: &miss[0], n: len(miss)}
			off, ok := key.find(recent[:min(nrecent, len(recent))])
			if !ok {
				// A slice not among the recent ones is resolved afresh;
				// its run bytes depend only on its names, so re-resolving
				// an evicted slice writes the same bytes.
				off = int32(len(runs))
				runs = append(runs, byte(len(miss)))
				for _, m := range miss {
					idx, err := tab.intern(m)
					if err != nil {
						return nil, err
					}
					runs = append(runs, idx)
				}
				key.off = off
				recent[nrecent%len(recent)] = key
				nrecent++
			}
			rowRun[i] = off
		}
		if rs[i].Tier < math.MinInt16 || rs[i].Tier > math.MaxInt16 {
			return nil, fmt.Errorf("wire: tier %d out of int16 range", rs[i].Tier)
		}
	}
	dst = append(dst, respMagic...)
	dst = append(dst, version)
	dst = appendU32(dst, uint32(n))
	dst = append(dst, byte(len(tab.order)))
	for _, s := range tab.order {
		dst = append(dst, byte(len(s)))
		dst = append(dst, s...)
	}
	for i := range rs {
		dst = appendF64(dst, rs[i].Mbps)
	}
	for i := range rs {
		t := uint16(int16(rs[i].Tier))
		dst = append(dst, byte(t), byte(t>>8))
	}
	dst = append(dst, classIdx...)
	dst = append(dst, srcIdx...)
	off := len(dst)
	dst = append(dst, make([]byte, bitmapLen(n))...)
	for i := range rs {
		if rs[i].Degraded {
			dst[off+i/8] |= 1 << (i % 8)
		}
	}
	for _, off := range rowRun {
		dst = append(dst, runs[off:off+1+int32(runs[off])]...)
	}
	if version >= VersionIntervals {
		for i := range rs {
			dst = appendF64(dst, rs[i].P10)
		}
		for i := range rs {
			dst = appendF64(dst, rs[i].P90)
		}
		off := len(dst)
		dst = append(dst, make([]byte, bitmapLen(n))...)
		for i := range rs {
			if rs[i].HasInterval {
				dst[off+i/8] |= 1 << (i % 8)
			}
		}
	}
	return dst, nil
}

// missingRun is one distinct Missing slice of an encode pass and the
// offset of its wire bytes in the pass's run buffer.
type missingRun struct {
	data *string
	n    int
	off  int32
}

// find looks the slice up among recently interned ones.
func (k missingRun) find(recent []missingRun) (int32, bool) {
	for _, r := range recent {
		if r.data == k.data && r.n == k.n {
			return r.off, true
		}
	}
	return 0, false
}

// DecodeResults parses a binary response frame, accepting both the
// version-1 point form and the version-2 interval form. maxResults
// bounds the declared row count before any allocation sized from it.
// Version-1 rows come back with the degenerate band P10 = Mbps = P90
// and HasInterval false, so the struct's ordering invariant holds
// regardless of which frame arrived.
func DecodeResults(b []byte, maxResults int) ([]Result, error) {
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
		if len(b) < 1 {
			return nil, errTruncated
		}
		l := int(b[0])
		if len(b) < 1+l {
			return nil, errTruncated
		}
		table[i] = string(b[1 : 1+l])
		b = b[1+l:]
	}
	need := 8*n + 2*n + n + n + bitmapLen(n)
	if len(b) < need {
		return nil, errTruncated
	}
	rs := make([]Result, n)
	for i := 0; i < n; i++ {
		rs[i].Mbps = readF64(b[8*i:])
	}
	b = b[8*n:]
	for i := 0; i < n; i++ {
		rs[i].Tier = int(int16(uint16(b[2*i]) | uint16(b[2*i+1])<<8))
	}
	b = b[2*n:]
	lookup := func(idx byte) (string, error) {
		if int(idx) >= len(table) {
			return "", fmt.Errorf("wire: string index %d outside table of %d", idx, len(table))
		}
		return table[idx], nil
	}
	var err error
	for i := 0; i < n; i++ {
		if rs[i].Class, err = lookup(b[i]); err != nil {
			return nil, err
		}
	}
	b = b[n:]
	for i := 0; i < n; i++ {
		if rs[i].Source, err = lookup(b[i]); err != nil {
			return nil, err
		}
	}
	b = b[n:]
	bm := b[:bitmapLen(n)]
	b = b[bitmapLen(n):]
	for i := 0; i < n; i++ {
		rs[i].Degraded = bm[i/8]&(1<<(i%8)) != 0
	}
	// Rows whose missing-feature runs are byte-identical share one
	// decoded slice.
	var runs map[string][]string
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, errTruncated
		}
		cnt := int(b[0])
		if len(b) < 1+cnt {
			return nil, errTruncated
		}
		run := b[1 : 1+cnt]
		b = b[1+cnt:]
		if cnt == 0 {
			continue
		}
		miss, ok := runs[string(run)]
		if !ok {
			miss = make([]string, cnt)
			for j, idx := range run {
				if miss[j], err = lookup(idx); err != nil {
					return nil, err
				}
			}
			if runs == nil {
				runs = make(map[string][]string)
			}
			runs[string(run)] = miss
		}
		rs[i].Missing = miss
	}
	if version >= VersionIntervals {
		if len(b) < 16*n+bitmapLen(n) {
			return nil, errTruncated
		}
		for i := 0; i < n; i++ {
			rs[i].P10 = readF64(b[8*i:])
		}
		b = b[8*n:]
		for i := 0; i < n; i++ {
			rs[i].P90 = readF64(b[8*i:])
		}
		b = b[8*n:]
		ivm := b[:bitmapLen(n)]
		b = b[bitmapLen(n):]
		for i := 0; i < n; i++ {
			rs[i].HasInterval = ivm[i/8]&(1<<(i%8)) != 0
		}
	} else {
		for i := 0; i < n; i++ {
			rs[i].P10, rs[i].P90 = rs[i].Mbps, rs[i].Mbps
		}
	}
	if len(b) != 0 {
		return nil, errors.New("wire: trailing bytes after response frame")
	}
	return rs, nil
}
