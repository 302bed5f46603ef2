package store

import (
	"reflect"
	"testing"
	"time"
)

func rpcFixtures() []rpc {
	return []rpc{
		{Kind: kindWrite, ReqID: 1, Key: "k", Val: []byte("v1"), Ver: 3},
		{Kind: kindWriteAck, ReqID: 1, Key: "k", OK: true},
		{Kind: kindRead, ReqID: 2, Key: "sensor/温度"},
		{Kind: kindReadReply, ReqID: 2, Key: "k", Val: []byte{}, Ver: 9, OK: true},
		{Kind: kindAppend, ReqID: 3, Key: "m/press", Ver: 7,
			Pts: []Point{{T: time.Second, V: 1.5}, {T: 2 * time.Second, V: 1.75}}},
		{Kind: kindAppendAck, ReqID: 3, Key: "m/press", OK: true},
		{Kind: kindRange, ReqID: 4, Key: "m/press", From: -time.Second, To: time.Hour},
		{Kind: kindRangeReply, ReqID: 4, Key: "m/press", Ver: 7, OK: true,
			Pts: []Point{{T: time.Second, V: 1.5}}},
		{Kind: kindSync, Key: "m/press"},
		{Kind: kindSyncReply, Key: "m/press", Ver: 7,
			Pts: []Point{{T: time.Second, V: 1.5}, {T: 2 * time.Second, V: 1.75}}},
	}
}

func TestRPCRoundTrip(t *testing.T) {
	for _, m := range rpcFixtures() {
		data, release := marshalRPC(&m)
		got, err := parseRPC(data)
		release()
		if err != nil {
			t.Fatalf("kind %d: parse: %v", m.Kind, err)
		}
		// An empty value travels as present-but-empty and decodes as nil.
		if len(m.Val) == 0 {
			m.Val, got.Val = nil, nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("kind %d round-trip:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

func TestRPCBinaryFramesAreTagged(t *testing.T) {
	m := rpc{Kind: kindWrite, ReqID: 1, Key: "k", Val: []byte("v")}
	data, release := marshalRPC(&m)
	defer release()
	if data[0] != rpcMagic || data[1] != 1 {
		t.Fatalf("frame starts % x, want magic %#x then kind code 1", data[:2], rpcMagic)
	}
	untagged := append([]byte{'{'}, data[1:]...)
	if _, err := parseRPC(untagged); err == nil {
		t.Fatal("frame without the magic byte accepted")
	}
}

func TestRPCBinaryRejectsCorruptFrames(t *testing.T) {
	m := rpc{Kind: kindAppend, ReqID: 3, Key: "s", Ver: 1, Pts: []Point{{T: 1, V: 1}}}
	data, release := marshalRPC(&m)
	enc := append([]byte(nil), data...)
	release()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := parseRPC(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := parseRPC(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	for _, code := range []byte{0, byte(kindSyncReply) + 1, 0xEE} {
		bad := append([]byte(nil), enc...)
		bad[1] = code
		if _, err := parseRPC(bad); err == nil {
			t.Fatalf("unknown kind code %d accepted", code)
		}
	}
}

// BenchmarkRPCCodec measures one encode and decode of a 64-point append.
func BenchmarkRPCCodec(b *testing.B) {
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{T: time.Duration(i) * 50 * time.Millisecond, V: 20 + float64(i%5)*0.25}
	}
	m := rpc{Kind: kindAppend, ReqID: 42, Key: "plant/line3/temp", Ver: 900, Pts: pts}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, release := marshalRPC(&m)
		if _, err := parseRPC(data); err != nil {
			b.Fatal(err)
		}
		release()
	}
}

// BenchmarkRPCEncode isolates the send-side cost (the part the pooled
// buffers eliminate).
func BenchmarkRPCEncode(b *testing.B) {
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{T: time.Duration(i) * 50 * time.Millisecond, V: 20 + float64(i%5)*0.25}
	}
	m := rpc{Kind: kindAppend, ReqID: 42, Key: "plant/line3/temp", Ver: 900, Pts: pts}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, release := marshalRPC(&m)
		if len(data) == 0 {
			b.Fatal("empty frame")
		}
		release()
	}
}
