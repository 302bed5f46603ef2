package store

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// parseRPC and decodePoints are the only decoders of replica bytes, so
// they are fuzzed: arbitrary input must never panic, and whatever
// parses must re-encode (appendRPC/appendPoints) to exactly the bytes a
// naive reference encoder writes, and re-parse to an equal value.

// refUvarint appends v as a base-128 varint, low group first, written
// out longhand as the differential oracle for encoding/binary.
func refUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// refZigzag maps 0, -1, 1, -2, ... to 0, 1, 2, 3, ...
func refZigzag(v int64) uint64 {
	if v >= 0 {
		return uint64(v) << 1
	}
	return uint64(^v)<<1 | 1
}

// refReverseBytes swaps the byte order of a 64-bit word.
func refReverseBytes(b uint64) uint64 {
	var out uint64
	for i := 0; i < 8; i++ {
		out = out<<8 | b&0xff
		b >>= 8
	}
	return out
}

// refPoints writes the point stream: the count, then per point the
// zigzagged timestamp (absolute for the first point, delta-of-delta
// after) and the byte-reversed XOR of its value bits with the previous.
func refPoints(dst []byte, pts []Point) []byte {
	dst = refUvarint(dst, uint64(len(pts)))
	var prevT, prevDelta int64
	var prevBits uint64
	for i, p := range pts {
		t := int64(p.T)
		if i == 0 {
			dst = refUvarint(dst, refZigzag(t))
		} else {
			delta := t - prevT
			dst = refUvarint(dst, refZigzag(delta-prevDelta))
			prevDelta = delta
		}
		prevT = t
		b := math.Float64bits(p.V)
		dst = refUvarint(dst, refReverseBytes(b^prevBits))
		prevBits = b
	}
	return dst
}

// refRPC writes one frame: magic, kind code, flags, request ID,
// version, length-prefixed key, optional length-prefixed value,
// zigzagged range bounds, then the point stream.
func refRPC(m *rpc) []byte {
	flags := byte(0)
	if m.OK {
		flags |= 1
	}
	if m.Val != nil {
		flags |= 2
	}
	dst := []byte{0xB5, byte(m.Kind), flags}
	dst = refUvarint(dst, m.ReqID)
	dst = refUvarint(dst, m.Ver)
	dst = refUvarint(dst, uint64(len(m.Key)))
	dst = append(dst, m.Key...)
	if m.Val != nil {
		dst = refUvarint(dst, uint64(len(m.Val)))
		dst = append(dst, m.Val...)
	}
	dst = refUvarint(dst, refZigzag(int64(m.From)))
	dst = refUvarint(dst, refZigzag(int64(m.To)))
	return refPoints(dst, m.Pts)
}

// pointsEqual compares value bits, so NaN payloads compare equal.
func pointsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

func rpcEqual(a, b rpc) bool {
	return a.Kind == b.Kind && a.ReqID == b.ReqID && a.Key == b.Key &&
		bytes.Equal(a.Val, b.Val) && (a.Val == nil) == (b.Val == nil) &&
		a.Ver == b.Ver && a.OK == b.OK && a.From == b.From && a.To == b.To &&
		pointsEqual(a.Pts, b.Pts)
}

func FuzzParseRPC(f *testing.F) {
	for _, m := range rpcFixtures() {
		f.Add(appendRPC(nil, &m))
	}
	f.Add([]byte{0xB5, byte(kindAppend), 3, 0x80, 0x00, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseRPC(data)
		if err != nil {
			return
		}
		enc := appendRPC(nil, &m)
		if ref := refRPC(&m); !bytes.Equal(enc, ref) {
			t.Fatalf("appendRPC and the reference encoder disagree on %+v:\n got % x\nwant % x", m, enc, ref)
		}
		again, err := parseRPC(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !rpcEqual(m, again) {
			t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", again, m)
		}
	})
}

func FuzzDecodePoints(f *testing.F) {
	f.Add(appendPoints(nil, nil))
	f.Add(appendPoints(nil, []Point{{T: time.Second, V: 20.5}, {T: 2 * time.Second, V: 20.75}, {T: 3 * time.Second, V: 20.75}}))
	f.Add(appendPoints(nil, []Point{{T: -5, V: math.Inf(-1)}, {T: math.MaxInt64, V: math.NaN()}, {T: math.MinInt64, V: 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, used, err := decodePoints(nil, data)
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		enc := appendPoints(nil, pts)
		if ref := refPoints(nil, pts); !bytes.Equal(enc, ref) {
			t.Fatalf("appendPoints and the reference encoder disagree on %v:\n got % x\nwant % x", pts, enc, ref)
		}
		again, n, err := decodePoints(nil, enc)
		if err != nil || n != len(enc) {
			t.Fatalf("re-encoded stream: consumed %d of %d bytes, %v", n, len(enc), err)
		}
		if !pointsEqual(pts, again) {
			t.Fatalf("round trip changed the points:\n got %v\nwant %v", again, pts)
		}
	})
}
