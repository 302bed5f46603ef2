package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestRunBeforeStrictBound pins the windowed-execution primitive: events
// strictly before the bound run, events at the bound stay queued, and
// the clock lands exactly on the bound either way.
func TestRunBeforeStrictBound(t *testing.T) {
	k := New(1)
	var fired []string
	k.At(10*time.Millisecond, func() { fired = append(fired, "early") })
	k.At(20*time.Millisecond, func() { fired = append(fired, "at-bound") })
	k.RunBefore(20 * time.Millisecond)
	if got, want := fmt.Sprint(fired), "[early]"; got != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if k.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v, want 20ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("event at the bound should remain queued, pending=%d", k.Pending())
	}
	k.RunBefore(20*time.Millisecond + 1)
	if got, want := fmt.Sprint(fired), "[early at-bound]"; got != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestNextEventAt pins the peek primitive.
func TestNextEventAt(t *testing.T) {
	k := New(1)
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("empty kernel reported a next event")
	}
	k.At(30*time.Millisecond, func() {})
	k.At(10*time.Millisecond, func() {})
	at, ok := k.NextEventAt()
	if !ok || at != 10*time.Millisecond {
		t.Fatalf("NextEventAt = %v,%v, want 10ms,true", at, ok)
	}
}

// shardRun is everything a ShardGroup run exposes that must not depend
// on how its windows were executed.
type shardRun struct {
	logs     [][]string
	stats    Stats
	windows  uint64
	handoffs uint64
}

// shardScript drives an eight-stripe group where each stripe runs a
// periodic local workload drawing from its own RNG and occasionally
// hands a message to another stripe across the barrier. Each stripe
// keeps its own transcript (stripes share nothing during a window,
// including a log).
func shardScript(workers int) shardRun {
	const n = 8
	kernels := make([]*Kernel, n)
	for i := range kernels {
		kernels[i] = New(int64(100 * (i + 1)))
	}
	g := NewShardGroup(time.Millisecond, kernels...)
	g.SetWorkers(workers)

	logs := make([][]string, n)
	for i, k := range kernels {
		i, k := i, k
		var tick func()
		tick = func() {
			v := k.Rand().Intn(1000)
			logs[i] = append(logs[i], fmt.Sprintf("t=%v draw=%d", k.Now(), v))
			if v%3 == 0 {
				dst := (i + 1 + v%(n-1)) % n
				at := k.Now()
				g.Post(i, dst, func() {
					kernels[dst].At(at+g.Lookahead(), func() {
						logs[dst] = append(logs[dst], fmt.Sprintf("t=%v recv-from-s%d", kernels[dst].Now(), i))
					})
				})
			}
			k.Schedule(time.Duration(500+100*i)*time.Microsecond, tick)
		}
		k.Schedule(time.Duration(i+1)*300*time.Microsecond, tick)
	}
	g.At(25*time.Millisecond, func() { logs[0] = append(logs[0], fmt.Sprintf("ctl t=%v", g.Now())) })
	// Many RunUntil calls, so windows are cut at many call boundaries.
	for end := 10 * time.Millisecond; end <= 5*time.Second; end += 10 * time.Millisecond {
		g.RunUntil(end)
	}
	return shardRun{logs: logs, stats: g.Stats(), windows: g.Windows(), handoffs: g.Handoffs()}
}

// TestShardGroupWorkerInvariance is the core determinism property: each
// stripe's full transcript (RNG draws, handoff arrival times, control
// callbacks) and the group's counters are identical at every worker
// count. GOMAXPROCS is raised so a worker count is never capped by the
// host's cores.
func TestShardGroupWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	seq := shardScript(1)
	for i, l := range seq.logs {
		if len(l) == 0 {
			t.Fatalf("stripe %d produced no events", i)
		}
	}
	if seq.handoffs == 0 {
		t.Fatal("script produced no handoffs")
	}
	for _, w := range []int{2, 3, 8} {
		got := shardScript(w)
		if !reflect.DeepEqual(seq.logs, got.logs) {
			t.Fatalf("workers=%d transcripts differ from workers=1:\nseq: %v\ngot: %v", w, seq.logs, got.logs)
		}
		if got.stats != seq.stats || got.windows != seq.windows || got.handoffs != seq.handoffs {
			t.Fatalf("workers=%d: stats %+v windows %d handoffs %d, want %+v %d %d",
				w, got.stats, got.windows, got.handoffs, seq.stats, seq.windows, seq.handoffs)
		}
	}
}

// settledGoroutines returns the goroutine count once goroutines that are
// still returning (an earlier test's, say) have had the CPU and exited:
// the count has not dropped over 100 consecutive yields.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 100; still++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m < n {
			n, still = m, 0
		}
	}
	return n
}

// TestShardGroupLeavesNoGoroutines checks that RunUntil starts no
// goroutine at any worker count: none is running while stripes execute,
// and none is left once the call returns.
func TestShardGroupLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := settledGoroutines()
	kernels := []*Kernel{New(1), New(2), New(3), New(4)}
	g := NewShardGroup(time.Millisecond, kernels...)
	g.SetWorkers(4)
	during := 0
	for _, k := range kernels {
		k.Every(300*time.Microsecond, 0, func() { during = max(during, runtime.NumGoroutine()) })
	}
	for _, end := range []Time{10 * time.Millisecond, 20 * time.Millisecond} {
		g.RunUntil(end)
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after RunUntil(%v): %d goroutines, want at most baseline %d", end, n, base)
		}
	}
	if during == 0 || during > base {
		t.Fatalf("goroutines while stripes ran = %d, want 1..%d (baseline)", during, base)
	}
}

// TestShardGroupControlExactness checks that control callbacks run at
// their exact requested instant (a barrier is forced there) and before
// stripe events at the same instant.
func TestShardGroupControlExactness(t *testing.T) {
	k0, k1 := New(1), New(2)
	g := NewShardGroup(500*time.Microsecond, k0, k1)
	var order []string
	k0.At(10*time.Millisecond, func() { order = append(order, "stripe-event") })
	g.At(10*time.Millisecond, func() {
		order = append(order, fmt.Sprintf("control@%v", g.Now()))
	})
	g.RunUntil(11 * time.Millisecond)
	want := []string{"control@10ms", "stripe-event"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestShardGroupHandoffDelivery checks that a handoff posted in a window
// is applied by the next barrier, never later than lookahead after its
// cause — the conservative bound cross-stripe effects rely on.
func TestShardGroupHandoffDelivery(t *testing.T) {
	k0, k1 := New(1), New(2)
	L := time.Millisecond
	g := NewShardGroup(L, k0, k1)
	var appliedAt Time = -1
	sent := 7 * time.Millisecond
	k0.At(sent, func() {
		g.Post(0, 1, func() { appliedAt = k1.Now() })
	})
	g.RunUntil(20 * time.Millisecond)
	if appliedAt < 0 {
		t.Fatal("handoff never applied")
	}
	if appliedAt < sent || appliedAt > sent+L {
		t.Fatalf("handoff applied at %v, want within (%v, %v]", appliedAt, sent, sent+L)
	}
	if g.Handoffs() != 1 {
		t.Fatalf("Handoffs() = %d, want 1", g.Handoffs())
	}
}

// TestShardGroupEmptyAdvance: with no events at all, RunUntil must still
// land the group (and every stripe clock) on the target instant.
func TestShardGroupEmptyAdvance(t *testing.T) {
	k0, k1 := New(1), New(2)
	g := NewShardGroup(time.Millisecond, k0, k1)
	g.RunUntil(3 * time.Second)
	if g.Now() != 3*time.Second || k0.Now() != 3*time.Second || k1.Now() != 3*time.Second {
		t.Fatalf("clocks %v/%v/%v, want 3s each", g.Now(), k0.Now(), k1.Now())
	}
}
