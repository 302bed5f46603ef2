package mac

import (
	"fmt"
	"time"

	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// TDMAConfig configures the synchronized-pipeline MAC. Slots are global:
// all nodes share the epoch structure and slot boundaries (the tight time
// synchronization Dozer-class protocols maintain; the simulation gives it
// to us for free, a real deployment pays a small beaconing cost for it).
type TDMAConfig struct {
	Config
	// SlotDuration is the length of one slot (default 10 ms), sized to
	// fit a data frame plus its in-slot ACK.
	SlotDuration time.Duration
	// SlotsPerEpoch is the number of slots in an epoch.
	SlotsPerEpoch int
	// TxSlot is the slot index in which this node may transmit.
	// Negative means the node never transmits (e.g., the root).
	TxSlot int
	// RxSlots are the slot indices during which this node listens
	// (typically its children's TxSlots).
	RxSlots []int
}

func (c *TDMAConfig) applyDefaults() {
	c.Config.applyDefaults()
	if c.SlotDuration == 0 {
		c.SlotDuration = 10 * time.Millisecond
	}
	if c.SlotsPerEpoch == 0 {
		c.SlotsPerEpoch = 10
	}
}

// TDMA is a synchronized staggered-slot MAC. With slots assigned by
// descending tree depth, a packet generated at a leaf traverses one hop
// per slot and reaches the root within a single epoch — the paper's
// "highly synchronous end-to-end communication involving tight
// coordination of multiple devices" (§IV-B). Latency is hops×slot instead
// of hops×(wake interval/2), and the radio is on only during owned slots.
type TDMA struct {
	m   *radio.Medium
	k   *sim.Kernel
	id  radio.NodeID
	cfg TDMAConfig

	meters  meters
	handler Handler
	q       sendq
	seq     uint16
	attempt int
	dedup   *dedup

	started bool
	stopped bool
	pending []sim.Event

	awaitAckSeq uint16
	awaitAckTo  radio.NodeID
	gotAck      bool
	seqAssigned bool

	endTxFn func() // prebuilt endTxSlot closure
}

var _ MAC = (*TDMA)(nil)

// NewTDMA creates a TDMA MAC for node id on medium m.
func NewTDMA(m *radio.Medium, id radio.NodeID, cfg TDMAConfig) *TDMA {
	cfg.applyDefaults()
	if cfg.TxSlot >= cfg.SlotsPerEpoch {
		panic(fmt.Sprintf("mac: TxSlot %d outside epoch of %d slots", cfg.TxSlot, cfg.SlotsPerEpoch))
	}
	for _, s := range cfg.RxSlots {
		if s < 0 || s >= cfg.SlotsPerEpoch {
			panic(fmt.Sprintf("mac: RxSlot %d outside epoch of %d slots", s, cfg.SlotsPerEpoch))
		}
	}
	t := &TDMA{m: m, k: m.Kernel(), id: id, cfg: cfg, dedup: newDedup(), meters: meters{m: m, id: id, proto: "tdma"}}
	t.endTxFn = t.endTxSlot
	return t
}

// Name implements MAC.
func (t *TDMA) Name() string { return "tdma" }

// OnReceive implements MAC.
func (t *TDMA) OnReceive(h Handler) { t.handler = h }

// QueueLen implements MAC.
func (t *TDMA) QueueLen() int { return t.q.len() }

// Buffers implements MAC.
func (t *TDMA) Buffers() *netbuf.Pool { return t.m.Buffers() }

// Retune implements MAC.
func (t *TDMA) Retune(ch uint8) {
	t.cfg.Channel = ch
	if t.started {
		t.m.SetChannel(t.id, ch)
	}
}

// Reboot implements MAC.
func (t *TDMA) Reboot() {
	t.seq = 0
	t.seqAssigned = false
	t.dedup.reset()
}

// ForgetNeighbor implements MAC.
func (t *TDMA) ForgetNeighbor(id radio.NodeID) { t.dedup.forget(id) }

// Epoch returns the epoch length.
func (t *TDMA) Epoch() time.Duration {
	return time.Duration(t.cfg.SlotsPerEpoch) * t.cfg.SlotDuration
}

// guard is the intra-slot offset before data goes on the air.
func (t *TDMA) guard() time.Duration { return t.cfg.SlotDuration / 8 }

// Start aligns the node to the global slot structure.
func (t *TDMA) Start() {
	if t.started {
		return
	}
	t.started = true
	t.stopped = false
	t.m.SetChannel(t.id, t.cfg.Channel)
	t.m.SetListening(t.id, false)
	t.scheduleEpoch()
}

// Stop cancels the schedule and fails queued sends.
func (t *TDMA) Stop() {
	if !t.started {
		return
	}
	t.started = false
	t.stopped = true
	for _, e := range t.pending {
		e.Cancel()
	}
	t.pending = nil
	t.m.SetListening(t.id, false)
	t.q.drain()
	t.seqAssigned = false
}

// Send implements MAC.
func (t *TDMA) Send(to radio.NodeID, payload []byte, done DoneFunc) {
	if !t.started || t.cfg.TxSlot < 0 {
		if done != nil {
			done(false)
		}
		return
	}
	t.q.push(outItem{to: to, buf: copyIn(t.m.Buffers(), payload), done: done})
}

// SendBuf implements MAC.
func (t *TDMA) SendBuf(to radio.NodeID, b *netbuf.Buffer, done DoneFunc) {
	if !t.started || t.cfg.TxSlot < 0 {
		b.Release()
		if done != nil {
			done(false)
		}
		return
	}
	t.q.push(outItem{to: to, buf: b, done: done})
}

func (t *TDMA) scheduleEpoch() {
	if t.stopped {
		return
	}
	epoch := t.Epoch()
	now := t.k.Now()
	// Next epoch boundary at or after now.
	boundary := (now + epoch - 1) / epoch * epoch
	if boundary == now && now != 0 {
		boundary += epoch
	}
	t.pending = t.pending[:0]
	if t.cfg.TxSlot >= 0 {
		// Transmit a guard interval into the slot so receivers (whose
		// listen events fire at the boundary) are guaranteed awake.
		at := boundary + time.Duration(t.cfg.TxSlot)*t.cfg.SlotDuration + t.guard()
		t.pending = append(t.pending, t.k.At(at, func() { t.txSlot() }))
	}
	for _, s := range t.cfg.RxSlots {
		at := boundary + time.Duration(s)*t.cfg.SlotDuration
		t.pending = append(t.pending, t.k.At(at, func() { t.rxSlot() }))
	}
	// Re-arm for the next epoch just before it begins.
	t.pending = append(t.pending, t.k.At(boundary+epoch-time.Nanosecond, func() { t.scheduleEpoch() }))
}

func (t *TDMA) rxSlot() {
	if t.stopped {
		return
	}
	t.m.SetListening(t.id, true)
	t.meters.listen(t.cfg.SlotDuration)
	t.k.Schedule(t.cfg.SlotDuration, func() {
		// Another slot may have turned the radio on again; only sleep
		// if no rx slot is in progress. Slots are non-overlapping by
		// construction, so unconditional off is correct here.
		if !t.stopped {
			t.m.SetListening(t.id, false)
		}
	})
}

func (t *TDMA) txSlot() {
	if t.stopped || t.q.len() == 0 {
		return
	}
	it := t.q.front()
	if !t.seqAssigned {
		t.seq++
		t.seqAssigned = true
		t.attempt = 0
		// Frame once into headroom; epoch retries reuse the buffer.
		frame(it.buf, KindData, t.seq)
	}
	t.gotAck = false
	t.awaitAckSeq = t.seq
	t.awaitAckTo = it.to
	t.m.Recorder().Emit(int32(t.id), trace.MACTx, int64(it.to), int64(t.attempt), 0, it.buf.Journey())
	// Listen after transmitting to catch the in-slot ACK.
	t.m.SetListening(t.id, true)
	air := t.m.Send(radio.Frame{
		From: t.id, To: it.to, Channel: t.cfg.Channel, Tenant: t.cfg.Tenant,
		Size: it.buf.Len(), Payload: it.buf,
	})
	t.meters.listen(t.cfg.SlotDuration - t.guard() - air)
	t.pending = append(t.pending, t.k.Schedule(t.cfg.SlotDuration-t.guard()-time.Nanosecond, t.endTxFn))
}

func (t *TDMA) endTxSlot() {
	if t.stopped || t.q.len() == 0 {
		return
	}
	it := t.q.front()
	t.m.SetListening(t.id, false)
	ok := t.gotAck || it.to == radio.Broadcast
	if !ok {
		t.attempt++
		if t.attempt <= t.cfg.MaxRetries {
			t.meters.inc(ctrRetries)
			t.m.Recorder().Emit(int32(t.id), trace.MACRetry, int64(it.to), int64(t.attempt), 0, it.buf.Journey())
			return // retry in next epoch's tx slot
		}
		t.meters.inc(ctrTxFailed)
		t.m.Recorder().Emit(int32(t.id), trace.MACTxFail, int64(it.to), int64(t.attempt), 0, it.buf.Journey())
	}
	fin := t.q.pop()
	fin.buf.Release()
	t.seqAssigned = false
	if fin.done != nil {
		fin.done(ok)
	}
}

// RadioReceive implements radio.Receiver.
func (t *TDMA) RadioReceive(f radio.Frame) {
	if !t.started || f.Payload == nil {
		return
	}
	kind, seq, payload, err := decode(f.Payload.Bytes())
	if err != nil {
		return
	}
	switch kind {
	case KindData:
		if f.To != t.id && f.To != radio.Broadcast {
			return
		}
		if f.To == t.id {
			ack := control(t.m.Buffers(), KindAck, seq)
			t.m.Send(radio.Frame{
				From: t.id, To: f.From, Channel: t.cfg.Channel,
				Tenant: t.cfg.Tenant, Size: ack.Len(), Payload: ack,
			})
			ack.Release()
		}
		if t.dedup.fresh(f.From, seq) && t.handler != nil {
			// Upper layers run in the context of this packet's journey;
			// anything they send synchronously continues it.
			js := t.m.Buffers().Journeys()
			prev := js.SetCurrent(f.Payload.Journey())
			t.handler(f.From, payload)
			js.SetCurrent(prev)
		}
	case KindAck:
		if f.To == t.id && seq == t.awaitAckSeq && f.From == t.awaitAckTo {
			t.gotAck = true
		}
	}
}
