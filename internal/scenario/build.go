package scenario

import (
	"fmt"

	"iiotds/internal/core"
	"iiotds/internal/fault"
	"iiotds/internal/radio"
)

// Built is a deployment constructed from a Spec, plus the fault
// machinery once armed. The spec held here has defaults applied.
type Built struct {
	Spec Spec
	D    *core.Deployment

	// Ledger, Inj, and Churn are created by ArmFaults; nil before.
	Ledger *fault.Ledger
	Inj    *fault.Injector
	Churn  *fault.Churn
}

// ChurnSeed derives the churn engine's generator seed from the scenario
// seed. The derivation is part of the reproducer contract: E14 pinned
// it before the scenario layer existed, and a replayed spec must drive
// the exact same fault schedule.
func ChurnSeed(seed int64) int64 { return seed*7919 + 13 }

// Build expands the spec into a running deployment via the core
// profile/stack builder. Like core.NewStack it panics on structural
// errors (Validate catches them first with a useful message); use
// Validate for error-returning checks, e.g. on parsed input.
//
// Build only constructs — it does not converge, start workloads, or arm
// faults — so experiment wrappers can keep their own measurement code
// on an identical deployment. Faults arm separately (ArmFaults) because
// the reliability ledger must start at convergence, not construction:
// availability is measured over the operational phase.
func Build(spec Spec) *Built {
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	profiles, topo := expand(spec)
	d := core.NewStack(core.Stack{
		Seed:          spec.Seed,
		Profiles:      profiles,
		Topology:      topo,
		TraceCapacity: spec.TraceCapacity,
		Factories:     spec.Factories,
	})
	return &Built{Spec: spec, D: d}
}

// expand generates the spec's topology and binds every node to a
// profile — the shared front half of Build and BuildSharded. The spec
// must already be canonical.
func expand(spec Spec) ([]core.Profile, core.Topology) {
	positions := spec.Topo.Generate(spec.Seed)
	labels := spec.Topo.Labels()
	if len(spec.Profiles) > 0 {
		topo := make(core.Topology, len(positions))
		for i, pos := range positions {
			name := spec.Profiles[0].Name
			if labels != nil {
				name = labels[i]
			}
			topo[i] = core.NodeSpec{Pos: pos, Profile: name}
		}
		return spec.Profiles, topo
	}
	return classProfiles(spec, positions, labels)
}

// classProfiles expands the data-only Classes into core profiles and a
// binding plan. With role labels, class 0 is the backbone and class 1
// (or 0) the leaves — named after the labels so cluster topologies
// validate. Without labels, node i runs class i mod k under profiles
// named c0..c(k-1).
func classProfiles(spec Spec, positions radio.Topology, labels []string) ([]core.Profile, core.Topology) {
	mk := func(name string, c ClassSpec) core.Profile {
		kind, _ := c.macKind() // validated by Build
		p := core.Profile{Name: name, MAC: kind, WithCoAP: spec.WithCoAP}
		p.LPL.WakeInterval = c.Wake
		return p
	}
	topo := make(core.Topology, len(positions))
	if labels != nil {
		leafClass := spec.Classes[min(1, len(spec.Classes)-1)]
		profiles := []core.Profile{
			mk("backbone", spec.Classes[0]),
			mk("leaf", leafClass),
		}
		for i := range topo {
			topo[i] = core.NodeSpec{Pos: positions[i], Profile: labels[i]}
		}
		return profiles, topo
	}
	profiles := make([]core.Profile, len(spec.Classes))
	for i, c := range spec.Classes {
		profiles[i] = mk(fmt.Sprintf("c%d", i), c)
	}
	for i := range topo {
		topo[i] = core.NodeSpec{
			Pos:     positions[i],
			Profile: profiles[i%len(profiles)].Name,
		}
	}
	return profiles, topo
}

// BuiltSharded is a deployment constructed from a Spec onto the sharded
// multi-kernel engine (DESIGN.md §9).
type BuiltSharded struct {
	Spec Spec
	D    *core.ShardedDeployment
}

// BuildSharded expands the spec like Build, but stripes the fleet over
// the given number of simulation kernels. The stripe count is a model
// parameter (it decides which frames cross a barrier); the worker count
// (D.G.SetWorkers) is pure execution policy. Tracing is not supported
// on the sharded engine, so specs carrying TraceCapacity panic in
// core.NewShardedStack.
func BuildSharded(spec Spec, stripes int) *BuiltSharded {
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	profiles, topo := expand(spec)
	sd := core.NewShardedStack(core.Stack{
		Seed:          spec.Seed,
		Profiles:      profiles,
		Topology:      topo,
		TraceCapacity: spec.TraceCapacity,
		Factories:     spec.Factories,
	}, stripes)
	return &BuiltSharded{Spec: spec, D: sd}
}

// ArmFaults creates the reliability ledger, fault injector, and churn
// engine at the deployment's current virtual time. Call it after
// convergence (on the kernel goroutine contract of the injector) and
// before starting the soak; the churn engine itself still needs
// Churn.Start. No-op when the spec schedules no faults.
func (b *Built) ArmFaults() {
	if !b.Spec.Faults.enabled() || b.Churn != nil {
		return
	}
	b.Ledger = fault.NewLedger(b.D.K.Now())
	b.Inj = fault.NewInjector(b.D.K, b.D.M, b.D, b.Ledger)
	b.Inj.SetRecorder(b.D.Trace)
	b.Churn = fault.NewChurn(b.Inj, ChurnSeed(b.Spec.Seed), b.Spec.Faults.ChurnConfig(b.Spec.Topo.Nodes()))
}
