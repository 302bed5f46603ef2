// Conservative parallel discrete-event scheduling for one deployment.
//
// A ShardGroup drives several kernels ("stripes") through shared virtual
// time in lockstep windows. The discipline is classic conservative PDES:
// no stripe may run past the earliest event any stripe still has queued
// plus the model's lookahead — the minimum virtual delay before anything
// one stripe does can become visible to another (for the radio medium,
// the minimum frame airtime: a frame transmitted at t delivers no
// earlier than t + airtime). Inside a window the stripes share nothing
// and may therefore execute on separate OS threads; at the window
// barrier, cross-stripe handoffs queued with Post are applied in a fixed
// (source stripe, append) order on the driver goroutine.
//
// The driver runs every window inline, stripe after stripe. Windows are
// small — a handful of events across all stripes is typical for a sparse
// fleet — so handing a stripe to another core costs about as much as
// running it, and a per-window goroutine spawn cost more than the work
// it spread (DESIGN.md §9).
//
// Determinism (DESIGN.md §5) survives by construction: the window
// sequence is a pure function of the stripes' queue states at barriers,
// each stripe's execution inside a window is single-threaded against its
// own kernel and RNG, and the barrier drain order is fixed. The worker
// count (SetWorkers) is execution policy that can never reorder a draw,
// so a run is byte-identical at any worker count, the same property the
// trial runner gives independent trials.
package sim

import (
	"fmt"
	"sort"
)

// ShardGroup synchronizes a fixed set of kernels (stripes) through
// common virtual time. The stripe count is part of the model: it decides
// which events are separated by a barrier. The worker count is not — it
// is pure execution policy.
//
// Thread contract: all ShardGroup methods are driver-goroutine only.
// The one exception is Post, which must be called from the posting
// stripe's own execution (its kernel callbacks) during a window.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead Time
	now       Time

	// out[src][dst] holds the handoffs stripe src queued for stripe dst
	// during the current window. Only stripe src's goroutine appends to
	// out[src][*], so no locking is needed; the drain happens after the
	// barrier, on the driver goroutine.
	out [][][]func()

	// ctl is the control timeline: driver-time callbacks (workload
	// arming, fault injection, convergence polling) that must run with
	// every stripe quiescent. Kept sorted by (at, seq).
	ctl    []ctlItem
	ctlSeq uint64

	windows  uint64
	handoffs uint64
}

type ctlItem struct {
	at  Time
	seq uint64
	fn  func()
}

// NewShardGroup creates a group over the given kernels. lookahead is the
// model's minimum cross-stripe visibility delay and must be positive;
// windows never extend more than lookahead past the earliest queued
// event, which is what makes cross-stripe deliveries timing-exact (an
// effect produced at t lands at its target no earlier than t+lookahead,
// and every barrier falls at or before that instant).
func NewShardGroup(lookahead Time, kernels ...*Kernel) *ShardGroup {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: ShardGroup lookahead %v must be positive", lookahead))
	}
	if len(kernels) == 0 {
		panic("sim: ShardGroup needs at least one kernel")
	}
	out := make([][][]func(), len(kernels))
	for i := range out {
		out[i] = make([][]func(), len(kernels))
	}
	return &ShardGroup{kernels: kernels, lookahead: lookahead, out: out}
}

// Lookahead returns the group's conservative lookahead.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Now returns the group's virtual time (the last barrier instant).
func (g *ShardGroup) Now() Time { return g.now }

// Windows returns how many synchronization windows have run.
func (g *ShardGroup) Windows() uint64 { return g.windows }

// Handoffs returns how many cross-stripe handoffs have been applied.
func (g *ShardGroup) Handoffs() uint64 { return g.handoffs }

// SetWorkers sets how many goroutines per-window stripe execution may
// fan across. Every window currently runs inline on the driver
// goroutine, the fastest way measured for the fleets this repository
// simulates (DESIGN.md §9), so n is accepted and has no effect. Like
// any worker count, it never affects results.
func (g *ShardGroup) SetWorkers(n int) {}

// Post queues fn to run at the next barrier, attributed to source stripe
// src. fn executes on the driver goroutine with every stripe quiescent
// and may mutate stripe dst's state (typically scheduling events on its
// kernel). Handoffs drain in (src, dst, append) order, so the apply
// sequence — and any randomness the handoffs consume from the target
// kernels — is identical at every worker count.
func (g *ShardGroup) Post(src, dst int, fn func()) {
	if fn == nil {
		panic("sim: Post with nil fn")
	}
	g.out[src][dst] = append(g.out[src][dst], fn)
}

// At schedules fn on the control timeline at absolute virtual time t
// (clamped to the present). Control callbacks run on the driver
// goroutine at the exact requested instant — windows are cut short to
// land a barrier there — before any stripe executes its own events at
// that instant. The returned handle is inert (control events cannot be
// canceled); it exists so the group satisfies the same scheduling
// interface as a Kernel for fault-injection glue.
func (g *ShardGroup) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: ShardGroup.At with nil fn")
	}
	if t < g.now {
		t = g.now
	}
	it := ctlItem{at: t, seq: g.ctlSeq, fn: fn}
	g.ctlSeq++
	i := sort.Search(len(g.ctl), func(i int) bool {
		if g.ctl[i].at != it.at {
			return g.ctl[i].at > it.at
		}
		return g.ctl[i].seq > it.seq
	})
	g.ctl = append(g.ctl, ctlItem{})
	copy(g.ctl[i+1:], g.ctl[i:])
	g.ctl[i] = it
	return Event{}
}

// Schedule runs fn on the control timeline after d of virtual time.
func (g *ShardGroup) Schedule(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return g.At(g.now+d, fn)
}

// nextEvent returns the earliest queued event across all stripes.
func (g *ShardGroup) nextEvent() (Time, bool) {
	var best Time
	ok := false
	for _, k := range g.kernels {
		if at, has := k.NextEventAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// runControl fires control callbacks due at or before the current
// barrier, in (at, seq) order. Callbacks may add more control events
// (including at the same instant) and mutate any stripe.
func (g *ShardGroup) runControl() {
	for len(g.ctl) > 0 && g.ctl[0].at <= g.now {
		it := g.ctl[0]
		g.ctl = g.ctl[1:]
		it.fn()
	}
}

// runWindow advances every stripe to end (executing events strictly
// before it), then applies the window's handoffs.
func (g *ShardGroup) runWindow(end Time) {
	for _, k := range g.kernels {
		k.RunBefore(end)
	}
	g.windows++
	g.now = end
	for s := range g.out {
		for d := range g.out[s] {
			q := g.out[s][d]
			if len(q) == 0 {
				continue
			}
			// Handoffs applied at this barrier may themselves Post; those
			// land in a fresh slice and drain at the NEXT barrier, so the
			// queue being iterated is never appended to.
			g.out[s][d] = nil
			for _, fn := range q {
				fn()
			}
			g.handoffs += uint64(len(q))
			if g.out[s][d] == nil {
				g.out[s][d] = q[:0] // recycle capacity
			}
		}
	}
}

// RunUntil advances the whole group to virtual time t. Windows are sized
// adaptively: each extends to the earliest queued event plus lookahead,
// cut short by pending control callbacks and by t itself. Events at
// exactly t stay queued (they run first thing in the next call), which
// is the windowed analogue of RunBefore's strict bound.
func (g *ShardGroup) RunUntil(t Time) {
	for {
		g.runControl()
		if g.now >= t {
			return
		}
		end := t
		if len(g.ctl) > 0 && g.ctl[0].at < end {
			end = g.ctl[0].at
		}
		if next, ok := g.nextEvent(); ok && next+g.lookahead < end {
			end = next + g.lookahead
		}
		g.runWindow(end)
	}
}

// RunFor is RunUntil(Now()+d).
func (g *ShardGroup) RunFor(d Time) { g.RunUntil(g.now + d) }

// Stats returns the aggregated scheduling counters of every stripe.
func (g *ShardGroup) Stats() Stats {
	var s Stats
	for _, k := range g.kernels {
		s.Add(k.Stats())
	}
	return s
}
