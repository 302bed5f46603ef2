package mac

import (
	"time"

	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// RIMACConfig configures the receiver-initiated MAC.
type RIMACConfig struct {
	Config
	// BeaconInterval is the receiver wake-and-beacon period
	// (default 500 ms). Latency per hop is ~BeaconInterval/2, as with
	// LPL, but the rendezvous cost moves from sender strobing to
	// receiver beacons.
	BeaconInterval time.Duration
	// Dwell is how long the receiver stays awake after its beacon
	// waiting for data (default 5 ms).
	Dwell time.Duration
	// IdleTimeout extends the wake while traffic flows (default 20 ms).
	IdleTimeout time.Duration
}

func (c *RIMACConfig) applyDefaults() {
	c.Config.applyDefaults()
	if c.BeaconInterval == 0 {
		c.BeaconInterval = 500 * time.Millisecond
	}
	if c.Dwell == 0 {
		c.Dwell = 5 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 20 * time.Millisecond
	}
}

// RIMAC is a receiver-initiated duty-cycled MAC in the style of RI-MAC
// (paper ref [27]): receivers periodically wake and advertise themselves
// with a short beacon; a sender with pending data wakes, listens for the
// target's beacon, and transmits immediately after it. Compared to LPL,
// the medium is occupied only by short beacons instead of long strobe
// trains, which behaves much better under contention.
type RIMAC struct {
	m   *radio.Medium
	k   *sim.Kernel
	id  radio.NodeID
	cfg RIMACConfig

	meters  meters
	handler Handler
	q       sendq
	sending bool
	seq     uint16
	dedup   *dedup

	started   bool
	stopped   bool
	beacons   *sim.Repeater
	sleepEv   sim.Event
	awake     bool
	lastAwake sim.Time

	// Sender rendezvous state.
	waiting     bool
	waitTarget  radio.NodeID
	waitExpire  sim.Event
	attempt     int
	awaitAckSeq uint16
	gotAck      bool
	bcastUntil  sim.Time
}

var _ MAC = (*RIMAC)(nil)

// NewRIMAC creates a receiver-initiated MAC for node id on medium m.
func NewRIMAC(m *radio.Medium, id radio.NodeID, cfg RIMACConfig) *RIMAC {
	cfg.applyDefaults()
	return &RIMAC{m: m, k: m.Kernel(), id: id, cfg: cfg, dedup: newDedup(), meters: meters{m: m, id: id, proto: "rimac"}}
}

// Name implements MAC.
func (r *RIMAC) Name() string { return "rimac" }

// OnReceive implements MAC.
func (r *RIMAC) OnReceive(h Handler) { r.handler = h }

// QueueLen implements MAC.
func (r *RIMAC) QueueLen() int { return r.q.len() }

// Buffers implements MAC.
func (r *RIMAC) Buffers() *netbuf.Pool { return r.m.Buffers() }

// Retune implements MAC.
func (r *RIMAC) Retune(ch uint8) {
	r.cfg.Channel = ch
	if r.started {
		r.m.SetChannel(r.id, ch)
	}
}

// Reboot implements MAC.
func (r *RIMAC) Reboot() {
	r.seq = 0
	r.dedup.reset()
}

// ForgetNeighbor implements MAC.
func (r *RIMAC) ForgetNeighbor(id radio.NodeID) { r.dedup.forget(id) }

// Start begins the beacon schedule.
func (r *RIMAC) Start() {
	if r.started {
		return
	}
	r.started = true
	r.stopped = false
	r.m.SetChannel(r.id, r.cfg.Channel)
	r.m.SetListening(r.id, false)
	r.beacons = r.k.Every(r.cfg.BeaconInterval, r.cfg.BeaconInterval/8, r.beacon)
}

// Stop halts the MAC and fails queued sends.
func (r *RIMAC) Stop() {
	if !r.started {
		return
	}
	r.started = false
	r.stopped = true
	if r.beacons != nil {
		r.beacons.Stop()
	}
	r.sleepEv.Cancel()
	r.waitExpire.Cancel()
	r.setAwake(false)
	r.q.drain()
	r.sending = false
	r.waiting = false
}

func (r *RIMAC) setAwake(on bool) {
	if on == r.awake {
		return
	}
	if on {
		r.lastAwake = r.k.Now()
	} else {
		r.meters.listen(r.k.Now() - r.lastAwake)
	}
	r.awake = on
	r.m.SetListening(r.id, on)
}

// beacon is the receiver-side wake-up: advertise, then listen briefly.
func (r *RIMAC) beacon() {
	if r.stopped || r.waiting {
		return // a waiting sender is already listening continuously
	}
	r.setAwake(true)
	bcn := control(r.m.Buffers(), KindBeacon, 0)
	r.m.Send(radio.Frame{
		From: r.id, To: radio.Broadcast, Channel: r.cfg.Channel,
		Tenant: r.cfg.Tenant, Size: bcn.Len(), Payload: bcn,
	})
	bcn.Release()
	r.meters.inc(ctrBeacons)
	r.m.Recorder().Emit(int32(r.id), trace.MACBeacon, 0, 0, 0, 0)
	r.scheduleSleep(r.cfg.Dwell)
}

func (r *RIMAC) scheduleSleep(d time.Duration) {
	r.sleepEv.Cancel()
	r.sleepEv = r.k.Schedule(d, func() {
		if r.stopped || r.waiting {
			return
		}
		if r.m.CarrierSense(r.id) {
			r.scheduleSleep(r.cfg.IdleTimeout)
			return
		}
		r.setAwake(false)
	})
}

// Send implements MAC.
func (r *RIMAC) Send(to radio.NodeID, payload []byte, done DoneFunc) {
	if !r.started {
		if done != nil {
			done(false)
		}
		return
	}
	r.enqueue(to, copyIn(r.m.Buffers(), payload), done)
}

// SendBuf implements MAC.
func (r *RIMAC) SendBuf(to radio.NodeID, b *netbuf.Buffer, done DoneFunc) {
	if !r.started {
		b.Release()
		if done != nil {
			done(false)
		}
		return
	}
	r.enqueue(to, b, done)
}

func (r *RIMAC) enqueue(to radio.NodeID, b *netbuf.Buffer, done DoneFunc) {
	r.q.push(outItem{to: to, buf: b, done: done})
	if !r.sending {
		r.startNext()
	}
}

func (r *RIMAC) startNext() {
	if r.q.len() == 0 || r.stopped {
		r.sending = false
		return
	}
	r.sending = true
	r.attempt = 0
	r.seq++
	r.gotAck = false
	it := r.q.front()
	// Frame once into headroom; every beacon-triggered copy (and every
	// retry window) reuses the buffer.
	frame(it.buf, KindData, r.seq)
	// Rendezvous: stay awake until the target's next beacon (or, for
	// broadcast, for one full beacon interval answering every beacon).
	r.waiting = true
	r.waitTarget = it.to
	r.setAwake(true)
	window := r.cfg.BeaconInterval + r.cfg.BeaconInterval/4
	if it.to == radio.Broadcast {
		r.bcastUntil = r.k.Now() + window
	}
	r.waitExpire = r.k.Schedule(window, func() { r.waitExpired() })
}

func (r *RIMAC) waitExpired() {
	if r.stopped || !r.waiting {
		return
	}
	it := r.q.front()
	if it.to == radio.Broadcast {
		// Broadcast window over: counted as delivered to whoever woke.
		r.finish(true)
		return
	}
	r.attempt++
	if r.attempt > r.cfg.MaxRetries {
		r.meters.inc(ctrTxFailed)
		r.m.Recorder().Emit(int32(r.id), trace.MACTxFail, int64(it.to), int64(r.attempt), 0, it.buf.Journey())
		r.finish(false)
		return
	}
	r.m.Recorder().Emit(int32(r.id), trace.MACRetry, int64(it.to), int64(r.attempt), 0, it.buf.Journey())
	// Keep waiting through another beacon period.
	r.waitExpire = r.k.Schedule(r.cfg.BeaconInterval, func() { r.waitExpired() })
}

func (r *RIMAC) finish(ok bool) {
	r.waiting = false
	r.waitExpire.Cancel()
	r.scheduleSleep(r.cfg.Dwell)
	if r.q.len() == 0 {
		r.sending = false
		return
	}
	it := r.q.pop()
	it.buf.Release()
	if it.done != nil {
		it.done(ok)
	}
	r.startNext()
}

// RadioReceive implements radio.Receiver.
func (r *RIMAC) RadioReceive(f radio.Frame) {
	if !r.started || f.Payload == nil {
		return
	}
	kind, seq, payload, err := decode(f.Payload.Bytes())
	if err != nil {
		return
	}
	switch kind {
	case KindBeacon:
		if !r.waiting {
			return
		}
		it := r.q.front()
		if it.to == radio.Broadcast {
			if r.k.Now() < r.bcastUntil {
				// The queued buffer was framed in startNext; every beacon
				// answered within the window reuses it.
				r.m.Send(radio.Frame{
					From: r.id, To: radio.Broadcast, Channel: r.cfg.Channel,
					Tenant: r.cfg.Tenant, Size: it.buf.Len(), Payload: it.buf,
				})
			}
			return
		}
		if f.From != it.to {
			return // someone else's beacon
		}
		// The target is awake: contend for it. Several senders may be
		// waiting on the same beacon, so back off a random slice of the
		// dwell window and carrier-sense before transmitting (RI-MAC's
		// collision-avoidance window). Losing the race just means
		// waiting for the next beacon.
		seq := r.seq
		to, buf := it.to, it.buf
		backoff := time.Duration(r.k.Rand().Int63n(int64(r.cfg.Dwell * 4 / 5)))
		r.k.Schedule(backoff, func() {
			// The r.seq and r.waiting guards ensure buf is still the
			// queued (framed, unreleased) head item when we transmit.
			if r.stopped || !r.waiting || r.seq != seq || r.gotAck {
				return
			}
			if r.m.CarrierSense(r.id) {
				return // another sender won this rendezvous
			}
			r.awaitAckSeq = seq
			r.m.Send(radio.Frame{
				From: r.id, To: to, Channel: r.cfg.Channel,
				Tenant: r.cfg.Tenant, Size: buf.Len(), Payload: buf,
			})
		})
	case KindData:
		if f.To != r.id && f.To != radio.Broadcast {
			return
		}
		if f.To == r.id {
			ack := control(r.m.Buffers(), KindAck, seq)
			r.m.Send(radio.Frame{
				From: r.id, To: f.From, Channel: r.cfg.Channel,
				Tenant: r.cfg.Tenant, Size: ack.Len(), Payload: ack,
			})
			ack.Release()
		}
		if r.dedup.fresh(f.From, seq) && r.handler != nil {
			// Upper layers run in the context of this packet's journey;
			// anything they send synchronously continues it.
			js := r.m.Buffers().Journeys()
			prev := js.SetCurrent(f.Payload.Journey())
			r.handler(f.From, payload)
			js.SetCurrent(prev)
		}
		if !r.waiting {
			r.setAwake(true)
			r.scheduleSleep(r.cfg.IdleTimeout)
		}
	case KindAck:
		if f.To == r.id && r.waiting && seq == r.awaitAckSeq {
			r.gotAck = true
			r.finish(true)
		}
	}
}
