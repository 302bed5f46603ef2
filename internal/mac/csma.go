package mac

import (
	"time"

	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// CSMAConfig configures the always-on carrier-sense MAC.
type CSMAConfig struct {
	Config
	// BackoffSlot is the unit backoff duration (default 320 µs, the
	// 802.15.4 unit backoff period).
	BackoffSlot time.Duration
	// MaxBackoffExp bounds the binary-exponential backoff window
	// (default 5, i.e. up to 32 slots).
	MaxBackoffExp int
}

func (c *CSMAConfig) applyDefaults() {
	c.Config.applyDefaults()
	if c.BackoffSlot == 0 {
		c.BackoffSlot = 320 * time.Microsecond
	}
	if c.MaxBackoffExp == 0 {
		c.MaxBackoffExp = 5
	}
}

// CSMA is an always-listening carrier-sense MAC with binary exponential
// backoff and unicast ACKs. It provides the lowest latency and the highest
// energy cost: the baseline the duty-cycled MACs are compared against.
type CSMA struct {
	m   *radio.Medium
	k   *sim.Kernel
	id  radio.NodeID
	cfg CSMAConfig

	meters  meters
	handler Handler
	q       sendq
	sending bool
	seq     uint16
	dedup   *dedup

	// In-flight unicast state.
	awaitAckSeq uint16
	awaitAckTo  radio.NodeID
	ackTimer    sim.Event
	attempt     int

	started bool
	accrual *sim.Repeater
	stopped bool

	// Prebuilt hot-path closures: creating these per send would put an
	// allocation on the zero-alloc path.
	firstTryFn   func()
	ackTimeoutFn func()
	bcastDoneFn  func()
}

var _ MAC = (*CSMA)(nil)

// NewCSMA creates a CSMA MAC for node id on medium m and attaches it as
// the node's radio receiver. The node must already be attached to the
// medium by the caller with this MAC as receiver, or use Attach.
func NewCSMA(m *radio.Medium, id radio.NodeID, cfg CSMAConfig) *CSMA {
	cfg.applyDefaults()
	c := &CSMA{m: m, k: m.Kernel(), id: id, cfg: cfg, dedup: newDedup(), meters: meters{m: m, id: id, proto: "csma"}}
	c.firstTryFn = func() { c.tryTransmit(1) }
	c.ackTimeoutFn = c.onAckTimeout
	c.bcastDoneFn = func() { c.finish(true) }
	return c
}

// Name implements MAC.
func (c *CSMA) Name() string { return "csma" }

// OnReceive implements MAC.
func (c *CSMA) OnReceive(h Handler) { c.handler = h }

// QueueLen implements MAC.
func (c *CSMA) QueueLen() int { return c.q.len() }

// Buffers implements MAC.
func (c *CSMA) Buffers() *netbuf.Pool { return c.m.Buffers() }

// Retune implements MAC.
func (c *CSMA) Retune(ch uint8) {
	c.cfg.Channel = ch
	if c.started {
		c.m.SetChannel(c.id, ch)
	}
}

// Reboot implements MAC.
func (c *CSMA) Reboot() {
	c.seq = 0
	c.dedup.reset()
}

// ForgetNeighbor implements MAC.
func (c *CSMA) ForgetNeighbor(id radio.NodeID) { c.dedup.forget(id) }

// Start turns the radio on permanently.
func (c *CSMA) Start() {
	if c.started {
		return
	}
	c.started = true
	c.stopped = false
	c.m.SetChannel(c.id, c.cfg.Channel)
	c.m.SetListening(c.id, true)
	// Accrue idle-listening energy once per simulated second.
	c.accrual = c.k.Every(time.Second, 0, func() {
		c.meters.listen(time.Second)
	})
}

// Stop turns the radio off and fails all queued sends.
func (c *CSMA) Stop() {
	if !c.started {
		return
	}
	c.started = false
	c.stopped = true
	c.m.SetListening(c.id, false)
	if c.accrual != nil {
		c.accrual.Stop()
	}
	c.ackTimer.Cancel()
	c.q.drain()
	c.sending = false
}

// Send implements MAC.
func (c *CSMA) Send(to radio.NodeID, payload []byte, done DoneFunc) {
	if !c.started {
		if done != nil {
			done(false)
		}
		return
	}
	c.enqueue(to, copyIn(c.m.Buffers(), payload), done)
}

// SendBuf implements MAC.
func (c *CSMA) SendBuf(to radio.NodeID, b *netbuf.Buffer, done DoneFunc) {
	if !c.started {
		b.Release()
		if done != nil {
			done(false)
		}
		return
	}
	c.enqueue(to, b, done)
}

func (c *CSMA) enqueue(to radio.NodeID, b *netbuf.Buffer, done DoneFunc) {
	c.q.push(outItem{to: to, buf: b, done: done})
	if !c.sending {
		c.startNext()
	}
}

func (c *CSMA) startNext() {
	if c.q.len() == 0 || c.stopped {
		c.sending = false
		return
	}
	c.sending = true
	c.attempt = 0
	c.seq++
	// Frame once into headroom; retransmissions reuse the same buffer.
	frame(c.q.front().buf, KindData, c.seq)
	// 802.15.4 performs a random backoff before the first CCA; without
	// it, event-triggered transmissions from several nodes (e.g. all
	// neighbors answering one broadcast) align on the same instant and
	// collide deterministically.
	c.initialBackoff()
}

func (c *CSMA) initialBackoff() {
	slots := c.k.Rand().Int63n(8) + 1
	c.k.Schedule(time.Duration(slots)*c.cfg.BackoffSlot, c.firstTryFn)
}

// tryTransmit performs carrier sense with exponential backoff, then puts
// the frame on the air.
func (c *CSMA) tryTransmit(backoffExp int) {
	if c.stopped || c.q.len() == 0 {
		return
	}
	if c.m.CarrierSense(c.id) {
		exp := backoffExp + 1
		if exp > c.cfg.MaxBackoffExp {
			exp = c.cfg.MaxBackoffExp
		}
		slots := c.k.Rand().Int63n(1 << uint(exp))
		c.m.Recorder().Emit(int32(c.id), trace.MACBackoff, slots+1, int64(exp), 0, c.q.front().buf.Journey())
		c.k.Schedule(time.Duration(slots+1)*c.cfg.BackoffSlot, func() {
			c.tryTransmit(exp)
		})
		return
	}
	it := c.q.front()
	c.m.Recorder().Emit(int32(c.id), trace.MACTx, int64(it.to), int64(c.attempt), 0, it.buf.Journey())
	air := c.m.Send(radio.Frame{
		From: c.id, To: it.to, Channel: c.cfg.Channel, Tenant: c.cfg.Tenant,
		Size: it.buf.Len(), Payload: it.buf,
	})
	if it.to == radio.Broadcast {
		// No ACK for broadcast: complete after airtime.
		c.k.Schedule(air, c.bcastDoneFn)
		return
	}
	c.awaitAckSeq = c.seq
	c.awaitAckTo = it.to
	c.ackTimer = c.k.Schedule(air+c.cfg.AckTimeout, c.ackTimeoutFn)
}

func (c *CSMA) onAckTimeout() {
	var jid uint64
	if c.q.len() > 0 {
		jid = c.q.front().buf.Journey()
	}
	c.attempt++
	if c.attempt > c.cfg.MaxRetries {
		c.meters.inc(ctrTxFailed)
		c.m.Recorder().Emit(int32(c.id), trace.MACTxFail, int64(c.awaitAckTo), int64(c.attempt), 0, jid)
		c.finish(false)
		return
	}
	c.meters.inc(ctrRetries)
	c.m.Recorder().Emit(int32(c.id), trace.MACRetry, int64(c.awaitAckTo), int64(c.attempt), 0, jid)
	c.initialBackoff()
}

func (c *CSMA) finish(ok bool) {
	if c.q.len() == 0 {
		return
	}
	it := c.q.pop()
	it.buf.Release()
	if it.done != nil {
		it.done(ok)
	}
	c.startNext()
}

// RadioReceive implements radio.Receiver.
func (c *CSMA) RadioReceive(f radio.Frame) {
	if !c.started || f.Payload == nil {
		return
	}
	kind, seq, payload, err := decode(f.Payload.Bytes())
	if err != nil {
		return
	}
	switch kind {
	case KindData:
		if f.To != c.id && f.To != radio.Broadcast {
			return // overheard unicast for someone else
		}
		if f.To == c.id {
			// ACK even duplicates: the sender may have missed our ACK.
			ack := control(c.m.Buffers(), KindAck, seq)
			c.m.Send(radio.Frame{
				From: c.id, To: f.From, Channel: c.cfg.Channel,
				Tenant: c.cfg.Tenant, Size: ack.Len(), Payload: ack,
			})
			ack.Release()
		}
		if c.dedup.fresh(f.From, seq) && c.handler != nil {
			// Upper layers run in the context of this packet's journey;
			// anything they send synchronously continues it.
			js := c.m.Buffers().Journeys()
			prev := js.SetCurrent(f.Payload.Journey())
			c.handler(f.From, payload)
			js.SetCurrent(prev)
		}
	case KindAck:
		if f.To == c.id && c.sending && seq == c.awaitAckSeq && f.From == c.awaitAckTo {
			c.ackTimer.Cancel()
			c.finish(true)
		}
	}
}
