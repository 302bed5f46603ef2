package radio

import (
	"math/rand"
	"testing"
	"time"

	"iiotds/internal/netbuf"
	"iiotds/internal/sim"
)

type collector struct {
	frames   []Frame
	payloads [][]byte // copied per frame: delivered views die with the callback
}

func (c *collector) RadioReceive(f Frame) {
	c.frames = append(c.frames, f)
	var p []byte
	if f.Payload != nil {
		p = netbuf.CloneBytes(f.Payload.Bytes())
	}
	c.payloads = append(c.payloads, p)
}

func newTestMedium(t *testing.T) (*sim.Kernel, *Medium) {
	t.Helper()
	k := sim.New(1)
	return k, NewMedium(k, DefaultParams(), nil)
}

func attach(m *Medium, id NodeID, x, y float64) *collector {
	c := &collector{}
	m.Attach(id, Position{X: x, Y: y}, c)
	m.SetListening(id, true)
	return c
}

func TestDeliveryInRange(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 10, 0)
	pl := netbuf.FromBytes([]byte("hello"))
	m.Send(Frame{From: 1, To: 2, Payload: pl, Size: 20})
	pl.Release() // the medium's flight reference keeps it alive
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(c2.frames))
	}
	if string(c2.payloads[0]) != "hello" {
		t.Fatalf("payload = %q", c2.payloads[0])
	}
}

// TestBroadcastFanoutIsolation is the regression test for the payload
// aliasing bug: one Frame.Payload used to fan out to every receiver of
// a broadcast as the same slice, so a receiver mutating its "own" bytes
// corrupted its siblings — and the sender's retained retransmit buffer.
func TestBroadcastFanoutIsolation(t *testing.T) {
	k := sim.New(1)
	m := NewMedium(k, DefaultParams(), nil)
	attach(m, 1, 0, 0)
	var got2, got3 []byte
	vandal := func(f Frame) {
		b := f.Payload.Bytes()
		got2 = netbuf.CloneBytes(b)
		for i := range b {
			b[i] = 0xFF // scribble over the delivered view
		}
	}
	m.Attach(2, Position{X: 5}, ReceiverFunc(vandal))
	m.SetListening(2, true)
	m.Attach(3, Position{X: 10}, ReceiverFunc(func(f Frame) {
		got3 = netbuf.CloneBytes(f.Payload.Bytes())
	}))
	m.SetListening(3, true)

	sent := m.Buffers().Get()
	sent.Append([]byte("fragile"))
	sent.Retain() // sender's retransmit-queue reference
	m.Send(Frame{From: 1, To: Broadcast, Payload: sent, Size: 20})
	sent.Release() // drop the send-call ref; the retained ref remains
	k.Run()

	// Node 2 (lower ID, dispatched first) scribbled its view; node 3 and
	// the sender's retained buffer must be untouched.
	if string(got2) != "fragile" {
		t.Fatalf("node 2 saw %q", got2)
	}
	if string(got3) != "fragile" {
		t.Fatalf("sibling receiver corrupted by node 2's mutation: %q", got3)
	}
	if string(sent.Bytes()) != "fragile" {
		t.Fatalf("sender's retransmit buffer corrupted: %q", sent.Bytes())
	}
	sent.Release()
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 100, 0)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 0 {
		t.Fatalf("out-of-range node received %d frames", len(c2.frames))
	}
}

func TestGrayRegionLoss(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 30, 0) // PRR = (35-30)/(35-20) = 1/3
	const n = 3000
	for i := 0; i < n; i++ {
		i := i
		k.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			m.Send(Frame{From: 1, To: 2, Size: 20})
		})
	}
	k.Run()
	got := float64(len(c2.frames)) / n
	if got < 0.28 || got > 0.39 {
		t.Fatalf("gray-region delivery ratio = %v, want ≈ 1/3", got)
	}
}

func TestNotListeningNoDelivery(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 5, 0)
	m.SetListening(2, false)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 0 {
		t.Fatal("sleeping node received a frame")
	}
}

func TestChannelIsolation(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 5, 0)
	c3 := attach(m, 3, 5, 5)
	m.SetChannel(1, 11)
	m.SetChannel(2, 11)
	m.SetChannel(3, 12)
	m.Send(Frame{From: 1, To: Broadcast, Channel: 11, Size: 20})
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatalf("co-channel node got %d frames, want 1", len(c2.frames))
	}
	if len(c3.frames) != 0 {
		t.Fatalf("cross-channel node got %d frames, want 0", len(c3.frames))
	}
}

func TestCollisionDestroysBoth(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	attach(m, 2, 10, 0)
	c3 := attach(m, 3, 5, 0) // hears both
	// Overlapping transmissions from 1 and 2.
	k.Schedule(0, func() { m.Send(Frame{From: 1, To: 3, Size: 50}) })
	k.Schedule(100*time.Microsecond, func() { m.Send(Frame{From: 2, To: 3, Size: 50}) })
	k.Run()
	if len(c3.frames) != 0 {
		t.Fatalf("receiver decoded %d frames during collision, want 0", len(c3.frames))
	}
	if m.Registry().Counter("radio.collisions").Value() == 0 {
		t.Fatal("collision counter not incremented")
	}
}

func TestNonOverlappingFramesBothDelivered(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	attach(m, 2, 10, 0)
	c3 := attach(m, 3, 5, 0)
	air := m.Airtime(50)
	k.Schedule(0, func() { m.Send(Frame{From: 1, To: 3, Size: 50}) })
	k.Schedule(air+time.Millisecond, func() { m.Send(Frame{From: 2, To: 3, Size: 50}) })
	k.Run()
	if len(c3.frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(c3.frames))
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Nodes 1 and 2 are out of range of each other but both reach 3:
	// the classic hidden-terminal case must still collide at 3.
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	attach(m, 2, 60, 0)
	c3 := attach(m, 3, 30, 0)
	m.SetLinkPRR(1, 3, 1)
	m.SetLinkPRR(2, 3, 1)
	k.Schedule(0, func() { m.Send(Frame{From: 1, To: 3, Size: 50}) })
	k.Schedule(50*time.Microsecond, func() { m.Send(Frame{From: 2, To: 3, Size: 50}) })
	k.Run()
	if len(c3.frames) != 0 {
		t.Fatalf("hidden-terminal frames decoded: %d", len(c3.frames))
	}
}

func TestCarrierSense(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	attach(m, 2, 10, 0)
	var during, after bool
	k.Schedule(0, func() { m.Send(Frame{From: 1, To: Broadcast, Size: 100}) })
	k.Schedule(time.Microsecond, func() { during = m.CarrierSense(2) })
	k.Schedule(time.Second, func() { after = m.CarrierSense(2) })
	k.Run()
	if !during {
		t.Fatal("carrier sense false during transmission")
	}
	if after {
		t.Fatal("carrier sense true after transmission ended")
	}
}

func TestDownNodeNeitherSendsNorReceives(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 5, 0)
	m.SetDown(2, true)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 0 {
		t.Fatal("down node received a frame")
	}
	m.SetDown(1, true)
	if air := m.Send(Frame{From: 1, To: 2, Size: 20}); air != 0 {
		t.Fatal("down node transmitted")
	}
	// Recovery restores delivery.
	m.SetDown(1, false)
	m.SetDown(2, false)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatalf("recovered node got %d frames, want 1", len(c2.frames))
	}
}

func TestLinkFilterPartition(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 5, 0)
	m.SetLinkFilter(func(from, to NodeID) bool { return false })
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 0 {
		t.Fatal("filtered link delivered")
	}
	m.SetLinkFilter(nil)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatal("removing filter did not restore delivery")
	}
}

func TestEnergyAccounting(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	attach(m, 2, 5, 0)
	m.Send(Frame{From: 1, To: 2, Size: 100})
	k.Run()
	if m.Energy().Ledger(1).Joules(1) == 0 && m.Energy().Ledger(1).TotalJoules() == 0 {
		t.Fatal("sender spent no energy")
	}
	if m.Energy().Ledger(2).TotalJoules() == 0 {
		t.Fatal("receiver spent no energy")
	}
}

func TestAirtimeScalesWithSize(t *testing.T) {
	_, m := newTestMedium(t)
	small, big := m.Airtime(10), m.Airtime(100)
	if big <= small {
		t.Fatalf("airtime(100)=%v <= airtime(10)=%v", big, small)
	}
	// 127-byte 802.15.4 frame ≈ 4.4 ms at 250 kbps.
	got := m.Airtime(127 - 11)
	if got < 4*time.Millisecond || got > 5*time.Millisecond {
		t.Fatalf("max-frame airtime = %v, want ≈4.4ms", got)
	}
}

func TestSetLinkPRRZeroBlocksAndNegativeRestores(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 5, 0)
	m.SetLinkPRR(1, 2, 0)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 0 {
		t.Fatal("PRR=0 link delivered")
	}
	m.SetLinkPRR(1, 2, -1)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatal("PRR override removal failed")
	}
}

func TestNeighborsSortedByDistance(t *testing.T) {
	_, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	attach(m, 2, 30, 0)
	attach(m, 3, 10, 0)
	attach(m, 4, 500, 0)
	got := m.NeighborsOf(1)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("NeighborsOf = %v, want [3 2]", got)
	}
}

func TestCrossTenantCollisionCounter(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	attach(m, 2, 10, 0)
	attach(m, 3, 5, 0)
	k.Schedule(0, func() { m.Send(Frame{From: 1, To: 3, Size: 50, Tenant: "acme"}) })
	k.Schedule(50*time.Microsecond, func() { m.Send(Frame{From: 2, To: 3, Size: 50, Tenant: "globex"}) })
	k.Run()
	if m.Registry().Counter("radio.collisions_cross_tenant").Value() == 0 {
		t.Fatal("cross-tenant collision not counted")
	}
}

func TestAttachDuplicatePanics(t *testing.T) {
	_, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Attach(1, Position{}, &collector{})
}

func TestGridTopology(t *testing.T) {
	top := GridTopology(9, 10)
	if len(top) != 9 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0] != (Position{0, 0}) || top[4] != (Position{10, 10}) || top[8] != (Position{20, 20}) {
		t.Fatalf("grid positions wrong: %v", top)
	}
	w, h := top.Bounds()
	if w != 20 || h != 20 {
		t.Fatalf("Bounds = %v,%v", w, h)
	}
}

func TestLineTopology(t *testing.T) {
	top := LineTopology(4, 15)
	if top[3] != (Position{X: 45}) {
		t.Fatalf("line positions wrong: %v", top)
	}
}

func TestConnectedRandomTopologyIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const maxLink = 25.0
	top := ConnectedRandomTopology(60, 200, 200, maxLink, rng)
	if len(top) != 60 {
		t.Fatalf("len = %d", len(top))
	}
	// BFS over the maxLink graph must reach every node.
	adj := func(i int) []int {
		var out []int
		for j := range top {
			if j != i && top[i].Distance(top[j]) <= maxLink {
				out = append(out, j)
			}
		}
		return out
	}
	seen := map[int]bool{0: true}
	queue := []int{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) != len(top) {
		t.Fatalf("topology disconnected: reached %d of %d", len(seen), len(top))
	}
}

func TestTopologyPanicsOnZeroNodes(t *testing.T) {
	for name, fn := range map[string]func(){
		"grid": func() { GridTopology(0, 1) },
		"line": func() { LineTopology(0, 1) },
		"rand": func() { ConnectedRandomTopology(0, 1, 1, 1, rand.New(rand.NewSource(1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
