package main

import (
	"encoding/binary"
	"runtime"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/scenario"
	"iiotds/internal/sim"
)

// cityParams sizes the city-mesh unit of work: fleets E15-shaped sparse
// RGG fleets, each striped over a fixed number of kernels, converged and
// soaked under per-node uplink readings and root CoAP probes.
type cityParams struct {
	nodes       int
	stripes     int
	converge    time.Duration // convergence budget
	soak        time.Duration // workload phase
	drain       time.Duration // in-flight readings settle after the soak
	uplinkEvery time.Duration // per-node reading period
	probeEvery  time.Duration // root probe period
	probes      int           // probe-target subset size
	step        time.Duration // virtual time per timed step
	fleets      int           // independent fleets per unit of work
}

var (
	cityFull = cityParams{
		nodes: 400, stripes: 8, converge: 5 * time.Minute, soak: 150 * time.Second,
		drain: 10 * time.Second, uplinkEvery: 30 * time.Second, probeEvery: 2 * time.Second,
		probes: 32, step: 100 * time.Millisecond, fleets: 16,
	}
	citySmoke = cityParams{
		nodes: 80, stripes: 8, converge: 2 * time.Minute, soak: 30 * time.Second,
		drain: 5 * time.Second, uplinkEvery: 10 * time.Second, probeEvery: 2 * time.Second,
		probes: 8, step: 100 * time.Millisecond, fleets: 2,
	}
)

// uplinkPayload is a reading stamped with its virtual send time.
func uplinkPayload(id radio.NodeID, at sim.Time) []byte {
	b := make([]byte, 11)
	b[0] = 0x15
	binary.BigEndian.PutUint16(b[1:3], uint16(id))
	binary.BigEndian.PutUint64(b[3:], uint64(at))
	return b
}

// fleetSeed derives the seed of fleet i of a city-mesh cycle; distinct
// workload seeds never share a fleet.
func fleetSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

// runCityCycle runs the p.fleets fleets of one city-mesh unit of work
// and merges them: counts and host times add up, samples pool, and the
// digest covers every fleet's digest in order. Several independent
// fleets per unit keep seed-to-seed variation of the host metrics small
// (one fleet's protocol dynamics, and with them its event load, vary by
// about ±15% between seeds).
func runCityCycle(p cityParams, seed int64, workers int, timed bool) *meshRep {
	var all *meshRep
	d := newDigest()
	for i := 0; i < p.fleets; i++ {
		rep := runCityRep(p, fleetSeed(seed, i), workers, timed)
		d.str(rep.digest)
		if all == nil {
			all = rep
			continue
		}
		all.merge(rep)
	}
	all.digest = d.String()
	return all
}

// citySpec is the city-mesh deployment: an E15-shaped RGG fleet whose
// layout, like every other input, is drawn from the seed.
func citySpec(p cityParams, seed int64, probes *macProbes) scenario.Spec {
	return scenario.Spec{
		Seed: seed,
		Topo: scenario.TopoSpec{Kind: scenario.TopoRGG, N: p.nodes, Density: 6},
		Profiles: []core.Profile{{
			Name:     "city",
			WithCoAP: true,
			// City-scale DODAGs run tens of hops deep (as in E15).
			Router: &rpl.Config{HopLimit: 255},
		}},
		Factories: core.Factories{MAC: probes.factory},
	}
}

// buildCity times one build of the city-mesh deployment.
func buildCity(p cityParams, seed int64) time.Duration {
	t0 := time.Now()
	b := scenario.BuildSharded(citySpec(p, seed, &macProbes{}), p.stripes)
	d := time.Since(t0)
	runtime.KeepAlive(b)
	return d
}

// runCityRep builds and runs one city-mesh fleet at the given worker
// count. timed selects the MAC timing wrapper (the traced run).
func runCityRep(p cityParams, seed int64, workers int, timed bool) *meshRep {
	probes := &macProbes{timed: timed}
	t0 := time.Now()
	b := scenario.BuildSharded(citySpec(p, seed, probes), p.stripes)
	rep := &meshRep{setup: time.Since(t0), timed: timed, step: p.step, nodes: p.nodes}
	sd := b.D
	sd.G.SetWorkers(workers)

	start := time.Now()
	vstart := sd.G.Now()
	step := func() {
		s := time.Now()
		sd.G.RunFor(p.step)
		rep.steps = append(rep.steps, float64(time.Since(s))/float64(time.Millisecond))
	}

	// Converge, checking each virtual second like RunUntilConverged.
	perSecond := int(time.Second / p.step)
	var convIn time.Duration
	for {
		if sd.Converged() {
			convIn = sd.G.Now() - vstart
			break
		}
		if sd.G.Now()-vstart >= p.converge {
			convIn = -1
			break
		}
		for i := 0; i < perSecond; i++ {
			step()
		}
	}

	// Uplink readings: every node stamps its virtual send time; the
	// root records the one-way latency. Counters are per stripe (each
	// written only by its own kernel goroutine) and summed afterwards.
	root := sd.Root()
	rootK := sd.Shards[sd.StripeOf(0)].K
	root.Router.Handle(lowpan.ProtoRaw, func(_ radio.NodeID, payload []byte) {
		if len(payload) != 11 || payload[0] != 0x15 {
			return
		}
		rep.delivered++
		rep.upLat = append(rep.upLat, rootK.Now()-sim.Time(binary.BigEndian.Uint64(payload[3:])))
	})
	sent := make([]int, len(sd.Shards))
	var stops []interface{ Stop() }
	for _, n := range sd.Nodes[1:] {
		n := n
		s := sd.StripeOf(n.ID)
		k := sd.Shards[s].K
		stops = append(stops, k.Every(p.uplinkEvery, p.uplinkEvery/4, func() {
			if !n.Up() {
				return
			}
			sent[s]++
			_ = n.Router.SendUp(lowpan.ProtoRaw, uplinkPayload(n.ID, k.Now()))
		}))
	}

	// Root CoAP probes over a stride-spread target subset.
	stride := max((p.nodes-1)/p.probes, 1)
	var targets []radio.NodeID
	for i := 0; i < p.probes && 1+i*stride < p.nodes; i++ {
		targets = append(targets, radio.NodeID(1+i*stride))
	}
	for _, id := range targets {
		sd.Nodes[int(id)].Server.Resource("status").Get(
			func(string, *coap.Message) *coap.Message { return coap.TextResponse("ok") })
	}
	issued, next := 0, 0
	stops = append(stops, rootK.Every(p.probeEvery, 0, func() {
		id := targets[next%len(targets)]
		next++
		issued++
		at := rootK.Now()
		root.CoAP.Get(sd.Nodes[int(id)].Addr(), "status", func(m *coap.Message, err error) {
			if err == nil && m.Code.IsSuccess() {
				rep.probeOK++
				rep.probeLat = append(rep.probeLat, rootK.Now()-at)
			} else {
				rep.probeFail++
			}
		})
	}))

	for t := time.Duration(0); t < p.soak; t += p.step {
		step()
	}
	for _, s := range stops {
		s.Stop()
	}
	for t := time.Duration(0); t < p.drain; t += p.step {
		step()
	}
	rep.wall = time.Since(start)
	rep.virt = sd.G.Now() - vstart

	for _, c := range sent {
		rep.sent += c
	}
	rep.probePending = issued - rep.probeOK - rep.probeFail
	regs := make([]*metrics.Registry, len(sd.Shards))
	for i, sh := range sd.Shards {
		regs[i] = sh.Reg
		st := sh.K.Stats()
		rep.stripeEvents = append(rep.stripeEvents, st.Fired)
		rep.maxHeap = max(rep.maxHeap, st.MaxHeapDepth)
		rep.poolMiss += sh.M.Buffers().Stats().Allocs
	}
	rep.windows = sd.G.Windows()
	rep.counters = readCounters(regs...)
	rep.mac = probes.totals()

	d := newDigest()
	d.i64(int64(p.nodes))
	d.i64(int64(convIn))
	for _, sh := range sd.Shards {
		st := sh.K.Stats()
		d.u64(st.Scheduled)
		d.u64(st.Fired)
		d.u64(st.Canceled)
		d.i64(int64(st.MaxHeapDepth))
	}
	d.u64(rep.windows)
	d.u64(sd.G.Handoffs())
	for _, name := range meshCounters {
		d.f64(rep.counters[name])
	}
	d.i64(int64(rep.sent))
	d.i64(int64(rep.delivered))
	d.i64(int64(issued))
	d.i64(int64(rep.probeOK))
	d.i64(int64(rep.probeFail))
	d.durations(rep.upLat)
	d.durations(rep.probeLat)
	rep.mac.fold(d)
	rep.digest = d.String()
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(sd)
	return rep
}

func runCityMesh(cfg config) *result {
	p := cityFull

	if cfg.smoke {
		p = citySmoke
	}
	return runMesh(cfg, meshWorkload{
		name:    "city-mesh",
		striped: true,
		build:   func(seed int64) time.Duration { return buildCity(p, fleetSeed(seed, 0)) },
		run: func(seed int64, workers int, timed bool) *meshRep {
			return runCityCycle(p, seed, workers, timed)
		},
	})
}
