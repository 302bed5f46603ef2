package store

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// The CP replication wire format: a compact binary framing with pooled
// encode buffers (appendRPC/parseRPC below), so quorum RPCs put no
// encoding allocations on the ingest hot path.

// rpcKind is an RPC's type, and its one-byte code on the wire.
type rpcKind byte

// RPC kinds, numbered from 1 in wire order.
const (
	kindWrite rpcKind = iota + 1
	kindWriteAck
	kindRead
	kindReadReply
	kindAppend
	kindAppendAck
	kindRange
	kindRangeReply
	kindSync
	kindSyncReply
)

// rpc is one CP message. Val carries KV payloads; Pts carries
// time-series batches (appends and range replies) in the shared
// point-stream encoding; From/To bound range requests.
type rpc struct {
	Kind  rpcKind
	ReqID uint64
	Key   string
	Val   []byte
	Ver   uint64
	OK    bool
	Pts   []Point
	From  time.Duration
	To    time.Duration
}

// rpcMagic leads every frame: the first check a replica makes on bytes
// that arrive from outside the process.
const rpcMagic = 0xB5

const (
	rpcFlagOK     = 1 << 0
	rpcFlagHasVal = 1 << 1
)

// appendRPC encodes m onto dst.
func appendRPC(dst []byte, m *rpc) []byte {
	var flags byte
	if m.OK {
		flags |= rpcFlagOK
	}
	if m.Val != nil {
		flags |= rpcFlagHasVal
	}
	dst = append(dst, rpcMagic, byte(m.Kind), flags)
	dst = binary.AppendUvarint(dst, m.ReqID)
	dst = binary.AppendUvarint(dst, m.Ver)
	dst = binary.AppendUvarint(dst, uint64(len(m.Key)))
	dst = append(dst, m.Key...)
	if m.Val != nil {
		dst = binary.AppendUvarint(dst, uint64(len(m.Val)))
		dst = append(dst, m.Val...)
	}
	dst = binary.AppendUvarint(dst, zigzag(int64(m.From)))
	dst = binary.AppendUvarint(dst, zigzag(int64(m.To)))
	return appendPoints(dst, m.Pts)
}

// parseRPC decodes one frame.
func parseRPC(data []byte) (rpc, error) {
	var m rpc
	if len(data) < 3 || data[0] != rpcMagic {
		return m, fmt.Errorf("store: not an rpc frame")
	}
	m.Kind = rpcKind(data[1])
	if m.Kind < kindWrite || m.Kind > kindSyncReply {
		return rpc{}, fmt.Errorf("store: unknown rpc kind code %d", data[1])
	}
	flags := data[2]
	m.OK = flags&rpcFlagOK != 0
	off := 3
	uv := func() uint64 {
		if off < 0 {
			return 0
		}
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			off = -1
			return 0
		}
		off += n
		return v
	}
	m.ReqID = uv()
	m.Ver = uv()
	klen := uv()
	if off < 0 || klen > uint64(len(data)-off) {
		return rpc{}, fmt.Errorf("store: truncated rpc frame")
	}
	m.Key = string(data[off : off+int(klen)])
	off += int(klen)
	if flags&rpcFlagHasVal != 0 {
		vlen := uv()
		if off < 0 || vlen > uint64(len(data)-off) {
			return rpc{}, fmt.Errorf("store: truncated rpc value")
		}
		m.Val = append([]byte(nil), data[off:off+int(vlen)]...)
		off += int(vlen)
	}
	m.From = time.Duration(unzigzag(uv()))
	m.To = time.Duration(unzigzag(uv()))
	if off < 0 {
		return rpc{}, fmt.Errorf("store: truncated rpc frame")
	}
	pts, used, err := decodePoints(nil, data[off:])
	if err != nil {
		return rpc{}, err
	}
	off += used
	if off != len(data) {
		return rpc{}, fmt.Errorf("store: %d trailing bytes in rpc frame", len(data)-off)
	}
	m.Pts = pts
	return m, nil
}

// rpcBufPool recycles encode buffers across sends. The replica may run
// on the wall clock (System scheduler) where sends race, so this is a
// sync.Pool rather than the kernel-local freelists of internal/netbuf.
var rpcBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// marshalRPC encodes m into a pooled buffer. The returned release func
// recycles the buffer; callers must not retain data after calling it
// (the in-memory gossip fabric and the CoAP transport both copy on
// send, see gossip.Messenger).
func marshalRPC(m *rpc) (data []byte, release func()) {
	bp := rpcBufPool.Get().(*[]byte)
	*bp = appendRPC((*bp)[:0], m)
	return *bp, func() { rpcBufPool.Put(bp) }
}
