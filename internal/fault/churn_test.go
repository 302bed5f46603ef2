package fault

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"iiotds/internal/radio"
)

// churnFixture runs a churn engine over the shared injector fixture and
// returns the applied schedule as "<time> <event> <node>" strings.
func churnFixture(t *testing.T, seed int64, cfg ChurnConfig, run time.Duration) ([]string, *Churn) {
	t.Helper()
	k, _, _, _, inj, _ := setup(t)
	churn := NewChurn(inj, seed, cfg)
	var events []string
	churn.OnCrash = func(id radio.NodeID) {
		events = append(events, fmt.Sprintf("%v crash %d", k.Now(), id))
	}
	churn.OnRecover = func(id radio.NodeID) {
		events = append(events, fmt.Sprintf("%v recover %d", k.Now(), id))
	}
	churn.Start()
	k.RunUntil(run)
	churn.Stop()
	k.Run() // drain: owed recoveries fire
	return events, churn
}

func testChurnCfg() ChurnConfig {
	return ChurnConfig{
		Nodes:  []radio.NodeID{1, 2, 3},
		MeanUp: 20 * time.Second, MinUp: 5 * time.Second,
		MeanDown: 5 * time.Second, MinDown: 2 * time.Second,
	}
}

func TestChurnScheduleDeterministic(t *testing.T) {
	a, _ := churnFixture(t, 7, testChurnCfg(), 5*time.Minute)
	b, _ := churnFixture(t, 7, testChurnCfg(), 5*time.Minute)
	if len(a) == 0 {
		t.Fatal("no churn events generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\nvs\n%v", a, b)
	}
	c, _ := churnFixture(t, 8, testChurnCfg(), 5*time.Minute)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical %d-event schedules", len(a))
	}
}

func TestChurnStopDrainsToAllUp(t *testing.T) {
	events, churn := churnFixture(t, 3, testChurnCfg(), 5*time.Minute)
	if churn.Crashes() == 0 {
		t.Fatal("no crashes injected")
	}
	// Every crash is paired with a recovery once the drain completes:
	// Stop never strands a node down.
	if churn.Crashes() != churn.Recoveries() {
		t.Fatalf("crashes %d != recoveries %d after drain", churn.Crashes(), churn.Recoveries())
	}
	for _, id := range []radio.NodeID{1, 2, 3} {
		if churn.Down(id) {
			t.Fatalf("node %d still down after Stop+drain", id)
		}
	}
	_ = events
}

func TestChurnRespectsFloors(t *testing.T) {
	k, _, _, _, inj, _ := setup(t)
	cfg := ChurnConfig{
		Nodes:  []radio.NodeID{1},
		MeanUp: time.Second, MinUp: 10 * time.Second,
		MeanDown: time.Second, MinDown: 4 * time.Second,
	}
	churn := NewChurn(inj, 1, cfg)
	var times []time.Duration
	var kinds []string
	churn.OnCrash = func(radio.NodeID) { times = append(times, k.Now()); kinds = append(kinds, "crash") }
	churn.OnRecover = func(radio.NodeID) { times = append(times, k.Now()); kinds = append(kinds, "recover") }
	churn.Start()
	k.RunUntil(3 * time.Minute)
	churn.Stop()
	k.Run()
	if len(times) < 4 {
		t.Fatalf("only %d events in 3 minutes", len(times))
	}
	prev := time.Duration(0)
	for i, at := range times {
		gap := at - prev
		floor := cfg.MinUp // gap before a crash is an up period
		if kinds[i] == "recover" {
			floor = cfg.MinDown
		}
		if gap < floor {
			t.Fatalf("event %d (%s) after %v, below floor %v", i, kinds[i], gap, floor)
		}
		prev = at
	}
}

func TestChurnLinkFaultsRestoredOnStop(t *testing.T) {
	k, m, _, _, inj, _ := setup(t)
	cfg := ChurnConfig{
		FlapLinks: [][2]radio.NodeID{{0, 1}},
		MeanFlap:  3 * time.Second,
		FlapPRR:   0.1,
		GELinks:   []GELink{{A: 2, B: 3, PGoodBad: 0.5, PBadGood: 0.2, BadPRR: 0.2}},
		GEStep:    time.Second,
	}
	churn := NewChurn(inj, 5, cfg)
	churn.Start()
	sawFlap, sawBurst := false, false
	k.Every(500*time.Millisecond, 0, func() {
		if m.PRR(0, 1) == 0.1 {
			sawFlap = true
		}
		if m.PRR(2, 3) == 0.2 {
			sawBurst = true
		}
	})
	k.RunUntil(2 * time.Minute)
	churn.Stop()
	if !sawFlap {
		t.Error("flap link never degraded")
	}
	if !sawBurst {
		t.Error("Gilbert–Elliott link never entered the bad state")
	}
	if got := m.PRR(0, 1); got != 1 {
		t.Errorf("flap link PRR after Stop = %v, want override removed", got)
	}
	if got := m.PRR(2, 3); got != 1 {
		t.Errorf("GE link PRR after Stop = %v, want override removed", got)
	}
}

func TestChurnPartitionStorm(t *testing.T) {
	k, _, _, _, inj, _ := setup(t)
	cfg := ChurnConfig{
		MeanPartition: 10 * time.Second,
		PartitionHold: 5 * time.Second,
		Groups:        [][]radio.NodeID{{2, 3}},
	}
	churn := NewChurn(inj, 9, cfg)
	churn.Start()
	sawPartition := false
	k.Every(time.Second, 0, func() {
		if inj.Partitioned() {
			sawPartition = true
		}
	})
	k.RunUntil(2 * time.Minute)
	churn.Stop()
	if !sawPartition {
		t.Fatal("no partition storm in 2 minutes")
	}
	if inj.Partitioned() {
		t.Fatal("partition still installed after Stop")
	}
}

// TestLedgerStatsEdgeSemantics pins the censored-observation semantics
// documented on StatsOf.
func TestLedgerStatsEdgeSemantics(t *testing.T) {
	l := NewLedger(0)

	// Unknown component: perfectly available, zero MTTF/MTTR.
	if s := l.StatsOf("unknown", time.Hour); s.Availability != 1 || s.MTTF != 0 || s.MTTR != 0 {
		t.Fatalf("unknown component stats = %+v", s)
	}

	// Known but never failed (a spurious repair creates it up): MTTF is
	// the censored total uptime, MTTR stays 0.
	l.RecordRepair("steady", 10*time.Second)
	s := l.StatsOf("steady", 100*time.Second)
	if s.Failures != 0 || s.MTTF != 100*time.Second || s.MTTR != 0 || s.Availability != 1 {
		t.Fatalf("never-failed stats = %+v", s)
	}

	// Failed, never repaired: MTTR is the censored downtime so far.
	l.RecordFailure("stuck", 40*time.Second)
	s = l.StatsOf("stuck", 100*time.Second)
	if s.Failures != 1 || s.Repairs != 0 {
		t.Fatalf("still-down stats = %+v", s)
	}
	if s.MTTF != 40*time.Second || s.MTTR != 60*time.Second {
		t.Fatalf("still-down MTTF=%v MTTR=%v, want 40s/60s", s.MTTF, s.MTTR)
	}
	if s.Availability != 0.4 {
		t.Fatalf("still-down availability = %v", s.Availability)
	}
}

// TestInjectorPartitionedCrossGoroutine exercises the documented thread
// contract: Partitioned may be polled from another goroutine while the
// kernel mutates partition state (the race detector is the assertion).
func TestInjectorPartitionedCrossGoroutine(t *testing.T) {
	k, _, _, _, inj, _ := setup(t)
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		if i%2 == 0 {
			k.At(at, func() { inj.Partition([]radio.NodeID{0, 1}, []radio.NodeID{2, 3}) })
		} else {
			k.At(at, inj.Heal)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			_ = inj.Partitioned()
		}
	}()
	k.Run()
	<-done
}
