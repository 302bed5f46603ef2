package main

import (
	"runtime"
	"time"

	"iiotds/internal/metrics"
)

// meshRep is one repetition of a mesh workload's unit of work. Every
// field except the host timings is a deterministic function of the
// seed.
type meshRep struct {
	digest string

	setup, wall time.Duration
	heapMB      float64       // live heap late in the measured phase
	timed       bool          // built with the MAC timing wrapper
	step        time.Duration // virtual time per timed step
	steps       []float64     // host ms per step
	nodes       int
	virt        time.Duration // virtual time advanced after setup

	stripeEvents []uint64
	maxHeap      int
	windows      uint64

	sent, delivered                  int
	upLat                            []time.Duration
	probeOK, probeFail, probePending int
	probeLat                         []time.Duration

	counters map[string]float64 // radio.* and rpl.* registry counters
	poolMiss uint64
	mac      macTotals

	// plant-floor only
	violations, traceEvents, traceDropped int
	crashes, recoveries                   int
	heartbeats, heartbeatOK               int
	hasStore, storeConverged              bool
	storeFailed                           uint64
	storeConvergedShards                  int
	violationSample                       string
	traceMissed                           uint64 // recorder events overwritten before a scan
}

// merge folds another fleet of the same size into r (setup keeps r's
// build; the digest is the caller's to combine).
func (r *meshRep) merge(o *meshRep) {
	r.wall += o.wall
	r.heapMB = max(r.heapMB, o.heapMB)
	r.steps = append(r.steps, o.steps...)
	r.virt += o.virt
	for i := range r.stripeEvents {
		r.stripeEvents[i] += o.stripeEvents[i]
	}
	r.maxHeap = max(r.maxHeap, o.maxHeap)
	r.windows += o.windows
	r.sent += o.sent
	r.delivered += o.delivered
	r.upLat = append(r.upLat, o.upLat...)
	r.probeOK += o.probeOK
	r.probeFail += o.probeFail
	r.probePending += o.probePending
	r.probeLat = append(r.probeLat, o.probeLat...)
	for k, v := range o.counters {
		r.counters[k] += v
	}
	r.poolMiss += o.poolMiss
	r.mac.add(o.mac)
}

// meshCounters are the registry counters a mesh run reports.
var meshCounters = []string{
	"radio.tx_frames", "radio.rx_frames", "radio.collisions", "radio.dropped_loss",
	"rpl.dio_sent", "rpl.dao_sent", "rpl.datagrams_forwarded", "rpl.no_route_drops", "rpl.parent_switches",
}

func readCounters(regs ...*metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, name := range meshCounters {
		for _, reg := range regs {
			out[name] += reg.Counter(name).Value()
		}
	}
	return out
}

// meshWorkload is one virtual-time workload: a deterministic unit of
// work and a way to time its deployment build alone.
type meshWorkload struct {
	name    string
	striped bool // runs on the sharded engine (worker count varies)
	build   func(seed int64) time.Duration
	run     func(seed int64, workers int, timed bool) *meshRep
}

// minSetups is how many deployment builds setup_s takes the median of.
const minSetups = 5

// runMesh drives a mesh workload. The untraced run repeats the unit at
// nproc workers until --seconds have been measured; the traced run does
// one untraced repetition, one timed repetition under the CPU profile
// and, on the sharded engine, one timed repetition at a single worker.
// Every repetition must reproduce the same digest.
func runMesh(cfg config, w meshWorkload) *result {
	r := newResult()
	nproc := runtime.GOMAXPROCS(0)
	mem0 := readMem()
	var reps []*meshRep
	measured := time.Duration(0)
	keep := func(rep *meshRep) *meshRep {
		reps = append(reps, rep)
		measured += rep.wall
		return rep
	}

	var speedup, tracedRatio float64
	var cpu map[string]float64
	var timed *meshRep
	if !cfg.trace {
		// Repeat while another repetition brings the measured time
		// closer to --seconds.
		for len(reps) == 0 || measured.Seconds()+reps[0].wall.Seconds()/2 < cfg.seconds {
			keep(w.run(cfg.seed, nproc, false))
		}
	} else {
		plain := keep(w.run(cfg.seed, nproc, false))
		cpu = profileCPU(func() { timed = keep(w.run(cfg.seed, nproc, true)) })
		tracedRatio = ratio(rate(timed), rate(plain))
		if w.striped {
			speedup = ratio(rate(timed), rate(keep(w.run(cfg.seed, 1, true))))
		}
	}
	first := reps[0]

	// Setup: the median of at least minSetups builds, the repetitions'
	// own included.
	var setups []float64
	for _, rep := range reps {
		setups = append(setups, rep.setup.Seconds())
	}
	for len(setups) < minSetups {
		setups = append(setups, w.build(cfg.seed).Seconds())
	}

	checkDigests(r, w.name, cfg, reps)
	events := sumU64(first.stripeEvents)
	r.check("mesh-progressed", first.virt > 0 && events > 0 && first.sent > 0,
		"%v virtual, %d events, %d readings sent", first.virt, events, first.sent)
	if first.hasStore {
		r.check("store-accounted", first.storeConverged && first.storeFailed == 0,
			"store converged=%v, %d batches failed", first.storeConverged, first.storeFailed)
	}
	// Readings and probes are the mesh's operations; what the radio
	// model loses is measured by the delivery ratios, not counted as a
	// failed operation (NOTES.md, "Failures").
	r.attempted += first.sent + first.probeOK + first.probeFail + first.probePending

	// End-to-end metrics (host time, untraced repetitions only).
	var nodeSec, wall float64
	var steps, heaps []float64
	for _, rep := range reps {
		if rep.timed {
			continue
		}
		nodeSec += float64(rep.nodes) * rep.virt.Seconds()
		wall += rep.wall.Seconds()
		steps = append(steps, rep.steps...)
		heaps = append(heaps, rep.heapMB)
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["heap_mb"] = median(heaps)
	r.e2e["work_per_s"] = nodeSec / wall
	r.e2e["latency_p50_ms"] = quantile(steps, 0.5)
	r.e2e["latency_p90_ms"] = quantile(steps, 0.9)
	r.note("%s: %d repetition(s), %.1f s measured, %d timed steps of %v virtual time, plain p99 %.3f ms",
		w.name, len(reps), measured.Seconds(), len(steps), first.step, quantile(steps, 0.99))

	// Workload figures and per-layer metrics.
	l := r.layer
	l["node_sim_s_per_wall_s"] = nodeSec / wall
	lat := first // virtual latencies: plant-floor has them from the traced unit only
	if timed != nil {
		lat = timed
	}
	l["uplink_delivery_ratio"] = ratio(float64(first.delivered), float64(first.sent))
	l["uplink_p50_vms"] = quantile(vms(lat.upLat), 0.5)
	l["uplink_p99_vms"] = quantile(vms(lat.upLat), 0.99)
	l["probe_success_ratio"] = ratio(float64(lat.probeOK), float64(lat.probeOK+lat.probeFail+lat.probePending))
	l["probe_p99_vms"] = quantile(vms(lat.probeLat), 0.99)
	l["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	l["bench.traced_rate_ratio"] = tracedRatio
	l["sim.events_fired"] = float64(events)
	if timed != nil {
		l["sim.host_ns_per_event"] = ratio(float64(timed.wall.Nanoseconds()), float64(sumU64(timed.stripeEvents)))
	}
	l["sim.max_heap_depth"] = float64(first.maxHeap)
	l["sim.windows"] = float64(first.windows)
	l["sim.stripe_imbalance"] = ratio(float64(maxU64(first.stripeEvents)), float64(events)/float64(len(first.stripeEvents)))
	l["sim.stripe_speedup"] = speedup
	for _, name := range meshCounters {
		l[name] = first.counters[name]
	}
	l["radio.rx_per_tx"] = ratio(first.counters["radio.rx_frames"], first.counters["radio.tx_frames"])
	if timed != nil {
		timed.mac.fill(r) // the timed repetition carries the host times
	} else {
		first.mac.fill(r)
	}
	l["netbuf.pool_misses"] = float64(first.poolMiss)
	l["coap.probe_pending"] = float64(lat.probePending)
	l["scenario.violations"] = float64(first.violations)
	l["trace.events"] = float64(first.traceEvents)
	l["trace.dropped"] = float64(first.traceDropped)
	l["fault.crashes"] = float64(first.crashes)
	l["fault.recoveries"] = float64(first.recoveries)
	l["security.heartbeat_ok_ratio"] = ratio(float64(first.heartbeatOK), float64(first.heartbeats))
	if first.hasStore {
		l["store.failed_batches"] = float64(first.storeFailed)
		l["store.converged_shards"] = float64(first.storeConvergedShards)
	}
	var allEvents float64
	for _, rep := range reps {
		allEvents += float64(sumU64(rep.stripeEvents))
	}
	runtimeLayer(r, mem0, allEvents)
	for layer, share := range cpu {
		l["cpu."+layer] = share
	}
	fillZero(l)

	r.note("digest %s; uplink %d/%d delivered; probes ok=%d failed=%d pending=%d",
		first.digest, first.delivered, first.sent, lat.probeOK, lat.probeFail, lat.probePending)
	if timed != nil && timed.traceMissed > 0 {
		r.note("the recorder overwrote %d events between scans: plant-floor latencies are partial", timed.traceMissed)
	}
	if first.violations > 0 {
		r.note("known baseline: %d invariant violation(s), first: %s", first.violations, first.violationSample)
	}
	return r
}

// checkDigests requires every repetition to reproduce the first one's
// digest and, where the seed has a pin, the pin.
func checkDigests(r *result, name string, cfg config, reps []*meshRep) {
	first := reps[0]
	same := true
	for _, rep := range reps[1:] {
		same = same && rep.digest == first.digest
	}
	what := "repetitions"
	if cfg.trace {
		what = "untraced and traced repetitions"
		if len(reps) > 2 {
			what = "untraced, traced and 1-worker repetitions"
		}
	}
	r.check("digest-repeatable", same, "%d %s agree on %s", len(reps), what, first.digest)
	if want, ok := pinnedDigest(name, cfg); ok {
		r.check("digest-pinned", first.digest == want, "seed %d: got %s, pinned %s", cfg.seed, first.digest, want)
	}
}

// rate is a repetition's node-sim-seconds per wall second.
func rate(rep *meshRep) float64 {
	return float64(rep.nodes) * rep.virt.Seconds() / rep.wall.Seconds()
}

func sumU64(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxU64(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// fillZero gives every per-layer metric the workload did not set a 0.
func fillZero(l map[string]float64) {
	for _, d := range perLayer {
		if _, ok := l[d.name]; !ok {
			l[d.name] = 0
		}
	}
}
