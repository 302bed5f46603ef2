package main

import (
	"runtime"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/scenario"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// plantParams sizes one plant-floor unit of work.
type plantParams struct {
	heads, members int
	soak           time.Duration
	churn          []int // node IDs under crash/recover churn
	step           time.Duration
}

// plantStoreShards is the CP store's partition count at the root.
const plantStoreShards = 2

var (
	// E13's composition at 8 heads × 12 leaves: a CSMA backbone with
	// LPL leaves waking every 250 ms. Its known baseline is a collapse
	// (NOTES.md); the benchmark records it rather than tuning it away.
	plantFull = plantParams{
		heads: 8, members: 12, soak: 5 * time.Minute,
		churn: []int{3, 6, 20, 45, 70, 95}, step: 100 * time.Millisecond,
	}
	plantSmoke = plantParams{
		heads: 3, members: 4, soak: 40 * time.Second,
		churn: []int{2, 7}, step: 100 * time.Millisecond,
	}
)

// plantSpec is the plant-floor scenario: AEAD heartbeats, ingest
// readings into a CP store at the root, root CoAP probes to the churned
// nodes, and crash/recover churn — all on one kernel with the flight
// recorder on, as every scenario runs.
func plantSpec(p plantParams, seed int64, probes *macProbes) scenario.Spec {
	return scenario.Spec{
		Seed:     seed,
		Topo:     scenario.TopoSpec{Kind: scenario.TopoCluster, Heads: p.heads, Members: p.members},
		Classes:  []scenario.ClassSpec{{Kind: "csma"}, {Kind: "lpl", Wake: 250 * time.Millisecond}},
		WithCoAP: true,
		Soak:     p.soak,
		Workload: scenario.WorkloadSpec{
			ProbeEvery:     5 * time.Second,
			HeartbeatEvery: 30 * time.Second,
			IngestEvery:    10 * time.Second,
		},
		Store: scenario.StoreSpec{Mode: "cp", Shards: plantStoreShards, Replicas: 3},
		Faults: scenario.FaultSpec{
			Churn:  scenario.NodeSel{Kind: "list", IDs: p.churn},
			MeanUp: time.Minute, MinUp: 40 * time.Second,
			MeanDown: 10 * time.Second, MinDown: 5 * time.Second,
		},
		Factories: core.Factories{MAC: probes.factory},
	}
}

// buildPlant times one build of the plant-floor deployment.
func buildPlant(p plantParams, seed int64) time.Duration {
	t0 := time.Now()
	b := scenario.Build(plantSpec(p, seed, &macProbes{}))
	d := time.Since(t0)
	runtime.KeepAlive(b)
	return d
}

// plantTap reads what scenario.Run keeps inside. It ticks on the
// deployment's kernel every step, timing host ms per step and reading
// the live heap once late in the soak. In the traced run each tick also
// scans the flight recorder's new events for the root's CoAP probe
// exchanges and for ingest readings reaching the root; the fleet records
// about 30,000 events per 100 ms step, so a step is the longest gap the
// 65,536-event ring allows. The tick draws no randomness, so the run's
// outcome is unchanged, and it runs in both kinds of run, so the kernel's
// event counts match.
type plantTap struct {
	m        *radio.Medium
	k        *sim.Kernel
	rec      *trace.Recorder
	step     time.Duration
	scans    bool // traced run: fold recorder events every tick
	last     time.Time
	steps    []float64
	seen     uint64 // recorder events already scanned
	missed   uint64 // events the ring overwrote before a scan
	reqAt    map[int64]sim.Time
	origin   map[uint64]sim.Time
	probeLat []time.Duration
	upLat    []time.Duration
	issued   int      // distinct root CoAP requests
	heapAt   sim.Time // virtual time at which the live heap is read
	heapMB   float64
	gcWall   time.Duration // host time the heap reading took
}

func (t *plantTap) attach(m *radio.Medium) {
	t.m, t.k, t.rec = m, m.Kernel(), m.Recorder()
	t.reqAt = map[int64]sim.Time{}
	t.origin = map[uint64]sim.Time{}
	t.k.Every(t.step, 0, t.tick)
}

func (t *plantTap) tick() {
	now := time.Now()
	if !t.last.IsZero() {
		t.steps = append(t.steps, float64(now.Sub(t.last))/float64(time.Millisecond))
	}
	t.last = now
	if t.scans {
		t.scan()
	}
	if t.heapMB == 0 && t.k.Now() >= t.heapAt {
		// Late in the soak the whole deployment and the store are
		// live. The collection is kept out of the step timings and
		// out of the run's wall time.
		t.heapMB = liveHeapMB()
		t.last = time.Now()
		t.gcWall = t.last.Sub(now)
	}
}

// scan folds the events recorded since the previous scan.
func (t *plantTap) scan() {
	total := t.rec.Total()
	fresh := total - t.seen
	held := uint64(t.rec.Cap())
	if fresh > held {
		t.missed += fresh - held
		fresh = held
	}
	skip := int(min(total, held) - fresh)
	i := 0
	t.rec.Each(trace.All(), func(e trace.Event) {
		if i++; i <= skip {
			return
		}
		switch {
		case e.Node == 0 && e.Type == trace.CoAPRequest:
			if _, dup := t.reqAt[e.A]; !dup {
				t.reqAt[e.A] = e.At
				t.issued++
			}
		case e.Node == 0 && e.Type == trace.CoAPResponse:
			if at, ok := t.reqAt[e.A]; ok {
				t.probeLat = append(t.probeLat, e.At-at)
				delete(t.reqAt, e.A)
			}
		case e.Node == 0 && e.Type == trace.CoAPTimeout:
			delete(t.reqAt, e.A)
		case e.Type == trace.RPLForward && e.B == 0 && e.J != 0:
			if _, ok := t.origin[e.J]; !ok {
				t.origin[e.J] = e.At
			}
		case e.Node == 0 && e.Type == trace.RPLDeliver && e.B == int64(lowpan.ProtoIngest):
			if at, ok := t.origin[e.J]; ok {
				t.upLat = append(t.upLat, e.At-at)
				delete(t.origin, e.J)
			}
		}
	})
	t.seen = total
}

// runPlantRep runs one plant-floor unit through scenario.Run.
func runPlantRep(p plantParams, seed int64, timed bool) *meshRep {
	// scenario.Run builds internally, so setup is timed on a separate
	// build of the same deployment.
	setup := buildPlant(p, seed)
	tap := &plantTap{step: p.step, heapAt: p.soak, scans: timed}
	probes := &macProbes{timed: timed, onFirst: tap.attach}
	spec := plantSpec(p, seed, probes)
	nodes := spec.Topo.Nodes()

	start := time.Now()
	res := scenario.Run(spec, nil)
	wall := time.Since(start)
	if tap.scans {
		tap.scan()
	}

	rep := &meshRep{
		setup: setup, timed: timed, step: p.step, steps: tap.steps, nodes: nodes, wall: wall - tap.gcWall,
		heapMB:    tap.heapMB,
		virt:      tap.k.Now(),
		sent:      res.IngestSent,
		delivered: res.IngestDelivered,
		upLat:     tap.upLat,
		probeOK:   res.ProbeOK, probeFail: res.ProbeFail,
		probeLat:   tap.probeLat,
		violations: len(res.Violations),
		crashes:    res.Crashes, recoveries: res.Recoveries,
		heartbeats: res.Heartbeats, heartbeatOK: res.HeartbeatOK,
		hasStore: true, storeConverged: res.StoreConverged, storeFailed: res.IngestFailed,
	}
	if res.StoreConverged {
		rep.storeConvergedShards = plantStoreShards
	}
	if tap.scans {
		rep.probePending = tap.issued - res.ProbeOK - res.ProbeFail
		rep.traceMissed = tap.missed
	}
	if len(res.Violations) > 0 {
		rep.violationSample = res.Violations[0].String()
	}
	st := tap.k.Stats()
	rep.stripeEvents = []uint64{st.Fired}
	rep.maxHeap = st.MaxHeapDepth
	sum := res.Trace.Summary()
	rep.traceEvents, rep.traceDropped = int(sum.Total), int(sum.Dropped)
	rep.counters = readCounters(tap.m.Registry())
	rep.poolMiss = tap.m.Buffers().Stats().Allocs
	rep.mac = probes.totals()

	d := newDigest()
	d.i64(int64(nodes))
	d.i64(int64(res.ConvergeIn))
	d.u64(st.Scheduled)
	d.u64(st.Fired)
	d.u64(st.Canceled)
	d.i64(int64(st.MaxHeapDepth))
	d.u64(sum.Total)
	for _, name := range meshCounters {
		d.f64(rep.counters[name])
	}
	for _, v := range []int{
		res.Crashes, res.Recoveries, res.ProbeOK, res.ProbeFail, res.Heartbeats,
		res.HeartbeatOK, res.IngestSent, res.IngestDelivered, len(res.Violations),
	} {
		d.i64(int64(v))
	}
	d.u64(res.IngestAcked)
	d.u64(res.IngestFailed)
	for _, v := range res.Violations {
		d.str(v.String())
	}
	rep.mac.fold(d) // the traced-only latency samples stay out
	rep.digest = d.String()
	return rep
}

func runPlantFloor(cfg config) *result {
	p := plantFull
	if cfg.smoke {
		p = plantSmoke
	}
	return runMesh(cfg, meshWorkload{
		name:  "plant-floor",
		build: func(seed int64) time.Duration { return buildPlant(p, seed) },
		run: func(seed int64, _ int, timed bool) *meshRep {
			return runPlantRep(p, seed, timed)
		},
	})
}
