package gossip

import (
	"encoding/json"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// counterState is a grow-only counter as a gossip.State: one count per
// replica, merged by per-replica max, valued as the sum.
type counterState struct {
	counts map[string]int64
}

func newCounterState() *counterState { return &counterState{counts: map[string]int64{}} }

func (s *counterState) add(id string, d int64) { s.counts[id] += d }

func (s *counterState) value() int64 {
	var sum int64
	for _, v := range s.counts {
		sum += v
	}
	return sum
}

func (s *counterState) Snapshot() ([]byte, error) { return json.Marshal(s.counts) }

func (s *counterState) Merge(remote []byte) error {
	var other map[string]int64
	if err := json.Unmarshal(remote, &other); err != nil {
		return err
	}
	for id, v := range other {
		if v > s.counts[id] {
			s.counts[id] = v
		}
	}
	return nil
}

func TestEnginesConverge(t *testing.T) {
	k := sim.New(5)
	net := NewNetwork()
	const n = 5
	states := make([]*counterState, n)
	engines := make([]*Engine, n)
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		states[i] = newCounterState()
		engines[i] = New(net.Attach(names[i]), clock.Kernel{K: k}, states[i],
			Config{Interval: time.Second, Seed: int64(i + 1)})
		engines[i].Start()
	}
	// Each replica increments locally.
	for i := 0; i < n; i++ {
		states[i].add(names[i], int64(i+1))
	}
	k.RunFor(30 * time.Second)
	want := int64(1 + 2 + 3 + 4 + 5)
	for i, s := range states {
		if got := s.value(); got != want {
			t.Fatalf("replica %d = %d, want %d", i, got, want)
		}
	}
	if engines[0].RoundsRun == 0 || engines[0].BytesSent == 0 {
		t.Fatal("engine stats not recorded")
	}
}

func TestPartitionBlocksThenHealConverges(t *testing.T) {
	k := sim.New(6)
	net := NewNetwork()
	names := []string{"a", "b", "c", "d"}
	states := make([]*counterState, len(names))
	for i, name := range names {
		states[i] = newCounterState()
		New(net.Attach(name), clock.Kernel{K: k}, states[i],
			Config{Interval: time.Second, Seed: int64(i + 1)}).Start()
	}
	net.SetPartition([]string{"a", "b"}, []string{"c", "d"})
	states[0].add("a", 10)
	states[2].add("c", 100)
	k.RunFor(20 * time.Second)
	if v := states[1].value(); v != 10 {
		t.Fatalf("same-side replica b = %d, want 10", v)
	}
	if v := states[0].value(); v != 10 {
		t.Fatalf("partition leaked: a = %d", v)
	}
	if net.Dropped == 0 {
		t.Fatal("no messages dropped by partition")
	}
	net.Heal()
	k.RunFor(30 * time.Second)
	for i, s := range states {
		if got := s.value(); got != 110 {
			t.Fatalf("replica %d = %d after heal, want 110", i, got)
		}
	}
}

func TestStopHaltsRounds(t *testing.T) {
	k := sim.New(7)
	net := NewNetwork()
	s := newCounterState()
	e := New(net.Attach("a"), clock.Kernel{K: k}, s, Config{Interval: time.Second})
	net.Attach("b").SetReceiver(func(string, []byte) {})
	e.Start()
	k.RunFor(5 * time.Second)
	rounds := e.RoundsRun
	if rounds == 0 {
		t.Fatal("no rounds ran")
	}
	e.Stop()
	k.RunFor(time.Minute)
	if e.RoundsRun != rounds {
		t.Fatal("rounds continued after Stop")
	}
	e.Start() // restart works
	k.RunFor(5 * time.Second)
	if e.RoundsRun == rounds {
		t.Fatal("restart did not resume rounds")
	}
}

func TestMalformedGossipIgnored(t *testing.T) {
	k := sim.New(8)
	net := NewNetwork()
	s := newCounterState()
	New(net.Attach("a"), clock.Kernel{K: k}, s, Config{Interval: time.Second}).Start()
	rogue := net.Attach("rogue")
	rogue.SetReceiver(func(string, []byte) {})
	if err := rogue.Send("a", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	// A valid envelope with garbage state must also be harmless.
	env, _ := json.Marshal(envelope{Kind: "push", State: []byte("garbage")})
	if err := rogue.Send("a", env); err != nil {
		t.Fatal(err)
	}
	k.RunFor(5 * time.Second)
	if s.value() != 0 {
		t.Fatal("garbage mutated state")
	}
}

func TestNetworkUnknownPeer(t *testing.T) {
	net := NewNetwork()
	p := net.Attach("a")
	if err := p.Send("ghost", []byte("x")); err == nil {
		t.Fatal("expected error for unknown peer")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	net := NewNetwork()
	net.Attach("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach("a")
}

func TestPeersSortedAndExcludesSelf(t *testing.T) {
	net := NewNetwork()
	a := net.Attach("a")
	net.Attach("c")
	net.Attach("b")
	got := a.Peers()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("Peers = %v", got)
	}
}
