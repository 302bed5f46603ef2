package main

import (
	"time"

	"iiotds/internal/core"
	"iiotds/internal/mac"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
)

// macProbe is the benchmark-owned Factories.MAC wrapper: it forwards
// every call to the node's stock MAC and counts sends, their outcomes,
// radio receive dispatches and the upcalls that reach the link layer.
// With timed set (the traced run) it also measures the host time spent
// inside RadioReceive and inside the MAC→link handler, so the MAC's own
// share can be told apart from the stack above it.
//
// One probe serves one node, and a node's calls all run on its kernel's
// goroutine, so the counters need no synchronization.
type macProbe struct {
	mac.MAC
	rx    radio.Receiver
	timed bool

	sends, sendOK    uint64
	rxCalls, upcalls uint64
	rxSelfNs, upNs   int64
}

// RadioReceive implements radio.Receiver (the medium delivers through
// the node's MAC field, which holds the probe).
func (p *macProbe) RadioReceive(fr radio.Frame) {
	p.rxCalls++
	if !p.timed {
		p.rx.RadioReceive(fr)
		return
	}
	up0 := p.upNs
	t0 := time.Now()
	p.rx.RadioReceive(fr)
	p.rxSelfNs += time.Since(t0).Nanoseconds() - (p.upNs - up0)
}

// OnReceive interposes on the link layer's handler.
func (p *macProbe) OnReceive(h mac.Handler) {
	p.MAC.OnReceive(func(from radio.NodeID, payload []byte) {
		p.upcalls++
		if !p.timed {
			h(from, payload)
			return
		}
		t0 := time.Now()
		h(from, payload)
		p.upNs += time.Since(t0).Nanoseconds()
	})
}

func (p *macProbe) Send(to radio.NodeID, payload []byte, done mac.DoneFunc) {
	p.sends++
	p.MAC.Send(to, payload, p.outcome(done))
}

func (p *macProbe) SendBuf(to radio.NodeID, b *netbuf.Buffer, done mac.DoneFunc) {
	p.sends++
	p.MAC.SendBuf(to, b, p.outcome(done))
}

func (p *macProbe) outcome(done mac.DoneFunc) mac.DoneFunc {
	return func(ok bool) {
		if ok {
			p.sendOK++
		}
		if done != nil {
			done(ok)
		}
	}
}

// macProbes collects the probes of one deployment build.
type macProbes struct {
	timed  bool
	probes []*macProbe
	// onFirst, when set, runs once with the first node's medium (the
	// plant-floor workload uses it to reach the kernel and recorder of
	// a deployment scenario.Run builds internally).
	onFirst func(m *radio.Medium)
}

// factory is the core.Factories.MAC hook.
func (c *macProbes) factory(m *radio.Medium, id radio.NodeID, prof *core.Profile) mac.MAC {
	if len(c.probes) == 0 && c.onFirst != nil {
		c.onFirst(m)
	}
	inner := core.DefaultMAC(m, id, prof)
	p := &macProbe{MAC: inner, rx: inner.(radio.Receiver), timed: c.timed}
	c.probes = append(c.probes, p)
	return p
}

// macTotals sums the probes.
type macTotals struct {
	sends, sendOK, rxCalls, upcalls uint64
	rxSelfNs, upNs                  int64
}

func (t *macTotals) add(o macTotals) {
	t.sends += o.sends
	t.sendOK += o.sendOK
	t.rxCalls += o.rxCalls
	t.upcalls += o.upcalls
	t.rxSelfNs += o.rxSelfNs
	t.upNs += o.upNs
}

func (c *macProbes) totals() macTotals {
	var t macTotals
	for _, p := range c.probes {
		t.add(macTotals{p.sends, p.sendOK, p.rxCalls, p.upcalls, p.rxSelfNs, p.upNs})
	}
	return t
}

// fill writes the mac.* and link.* per-layer metrics.
func (t macTotals) fill(r *result) {
	r.layer["mac.sends"] = float64(t.sends)
	r.layer["mac.send_ok_ratio"] = ratio(float64(t.sendOK), float64(t.sends))
	r.layer["mac.rx_calls"] = float64(t.rxCalls)
	r.layer["mac.upcall_ratio"] = ratio(float64(t.upcalls), float64(t.rxCalls))
	r.layer["mac.self_ns_per_rx"] = ratio(float64(t.rxSelfNs), float64(t.rxCalls))
	r.layer["link.upcall_ns"] = ratio(float64(t.upNs), float64(t.upcalls))
}

// fold adds the deterministic counts to a digest.
func (t macTotals) fold(d *digest) {
	d.u64(t.sends)
	d.u64(t.sendOK)
	d.u64(t.rxCalls)
	d.u64(t.upcalls)
}
