// Package link provides the logical link layer of the sensing-and-
// actuation stack: protocol multiplexing over a MAC, and a neighbor table
// with ETX (expected transmission count) estimation that the routing
// layer's objective function consumes.
package link

import (
	"fmt"

	"iiotds/internal/mac"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/trace"
)

// Protocol identifies an upper-layer protocol multiplexed over one MAC.
type Protocol byte

// Well-known protocol numbers.
const (
	// ProtoNet carries network-layer datagrams (lowpan/rpl).
	ProtoNet Protocol = 1
	// ProtoRouting carries routing control traffic (DIO/DAO/RNFD).
	ProtoRouting Protocol = 2
	// ProtoApp carries raw single-hop application traffic.
	ProtoApp Protocol = 3
)

// Handler receives demultiplexed payloads. The payload is a view into a
// pooled buffer valid only for the duration of the call; copy with
// netbuf.CloneBytes to retain it.
type Handler func(from radio.NodeID, payload []byte)

// Link multiplexes protocols over one MAC and observes transmission
// outcomes to estimate per-neighbor link quality.
type Link struct {
	mac       mac.MAC
	id        radio.NodeID
	handlers  map[Protocol]Handler
	neighbors *Table
	rec       *trace.Recorder
}

// New wraps m (the MAC of node id) as a link layer. It installs itself as
// the MAC's receive handler.
func New(id radio.NodeID, m mac.MAC) *Link {
	l := &Link{
		mac:       m,
		id:        id,
		handlers:  make(map[Protocol]Handler),
		neighbors: NewTable(),
	}
	m.OnReceive(l.onReceive)
	return l
}

// ID returns the node this link layer belongs to.
func (l *Link) ID() radio.NodeID { return l.id }

// Neighbors returns the neighbor table.
func (l *Link) Neighbors() *Table { return l.neighbors }

// SetRecorder installs the flight recorder ARQ outcomes are traced into.
func (l *Link) SetRecorder(rec *trace.Recorder) { l.rec = rec }

// Reboot models a device restart while the stack is stopped: the
// neighbor table (ETX estimates) is discarded and the MAC reboots
// (fresh sequence numbers, cleared dedup state). Protocol handlers stay
// registered — the stack object survives, only its volatile state is
// lost, as a real node's RAM would be.
func (l *Link) Reboot() {
	l.neighbors = NewTable()
	l.mac.Reboot()
}

// ForgetNeighbor drops everything this node knows about a neighbor that
// rebooted: its ETX estimate (stale link quality must not steer routing)
// and the MAC's dedup entry (the neighbor's restarted sequence numbering
// must not be mistaken for ARQ duplicates).
func (l *Link) ForgetNeighbor(id radio.NodeID) {
	l.neighbors.Forget(id)
	l.mac.ForgetNeighbor(id)
}

// Handle registers the handler for proto. Registering twice panics: each
// protocol has exactly one owner.
func (l *Link) Handle(proto Protocol, h Handler) {
	if _, dup := l.handlers[proto]; dup {
		panic(fmt.Sprintf("link: handler for protocol %d registered twice", proto))
	}
	l.handlers[proto] = h
}

// Buffers returns the packet-buffer pool of the underlying stack, for
// callers that build datagrams directly into pooled buffers (SendBuf).
func (l *Link) Buffers() *netbuf.Pool { return l.mac.Buffers() }

// Send transmits payload to neighbor to under proto. The payload is
// copied at call time into a pooled buffer, so the caller may reuse it
// immediately. done (may be nil) reports link-layer delivery; the
// outcome also feeds the ETX estimator.
func (l *Link) Send(to radio.NodeID, proto Protocol, payload []byte, done func(ok bool)) {
	b := l.mac.Buffers().Get()
	b.Append(payload)
	l.SendBuf(to, proto, b, done)
}

// SendBuf transmits b to neighbor to under proto, prepending the
// protocol byte into b's headroom. It takes ownership of the caller's
// reference: Retain first to keep using b afterwards. The MAC retains
// the framed buffer across ARQ retransmissions instead of re-encoding.
func (l *Link) SendBuf(to radio.NodeID, proto Protocol, b *netbuf.Buffer, done func(ok bool)) {
	b.Prepend(1)[0] = byte(proto)
	// The MAC owns b (and may have released it) by the time the done
	// closure runs, so capture the journey ID now.
	jid := b.Journey()
	l.mac.SendBuf(to, b, func(ok bool) {
		if to != radio.Broadcast {
			l.neighbors.RecordTx(to, ok)
			typ := trace.LinkAck
			if !ok {
				typ = trace.LinkDrop
			}
			// F carries the post-update ETX estimate, making ETX evolution
			// reconstructible from the trace alone.
			l.rec.Emit(int32(l.id), typ, int64(to), int64(proto), l.neighbors.ETX(to), jid)
		}
		if done != nil {
			done(ok)
		}
	})
}

// Broadcast transmits payload to all neighbors under proto, copying it
// at call time.
func (l *Link) Broadcast(proto Protocol, payload []byte) {
	l.Send(radio.Broadcast, proto, payload, nil)
}

func (l *Link) onReceive(from radio.NodeID, raw []byte) {
	if len(raw) < 1 {
		return
	}
	l.neighbors.RecordRx(from)
	if h, ok := l.handlers[Protocol(raw[0])]; ok {
		h(from, raw[1:])
	}
}
