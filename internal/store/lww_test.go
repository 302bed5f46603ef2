package store

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestLWWRegister(t *testing.T) {
	l := &lwwRegister{}
	l.set(10, "a", []byte("v1"))
	l.set(5, "b", []byte("stale"))
	if string(l.Val) != "v1" {
		t.Fatalf("stale write won: %q", l.Val)
	}
	l.set(20, "b", []byte("v2"))
	if string(l.Val) != "v2" {
		t.Fatalf("newer write lost: %q", l.Val)
	}
}

func TestLWWRegisterTieBreak(t *testing.T) {
	// Same timestamp: replica ID decides, identically on both sides.
	a, b := &lwwRegister{}, &lwwRegister{}
	a.set(10, "a", []byte("from-a"))
	b.set(10, "b", []byte("from-b"))
	a2, b2 := *a, *b
	a2.merge(b)
	b2.merge(a)
	if !bytes.Equal(a2.Val, b2.Val) {
		t.Fatalf("tie-break diverged: %q vs %q", a2.Val, b2.Val)
	}
	if string(a2.Val) != "from-b" {
		t.Fatalf("higher replica ID should win ties, got %q", a2.Val)
	}
}

// TestLWWLaws checks the merge is a join: commutative, associative and
// idempotent, so gossip may deliver snapshots in any order, any number
// of times.
func TestLWWLaws(t *testing.T) {
	merged := func(regs ...lwwRegister) lwwRegister {
		out := regs[0]
		for i := 1; i < len(regs); i++ {
			out.merge(&regs[i])
		}
		return out
	}
	same := func(x, y lwwRegister) bool {
		return bytes.Equal(x.Val, y.Val) && x.TS == y.TS && x.ID == y.ID
	}
	f := func(ts1, ts2, ts3 int8, v1, v2, v3 []byte) bool {
		// Narrow timestamps make ties (and the ID/value tie-breaks) common.
		a := lwwRegister{Val: v1, TS: int64(ts1 % 3), ID: "a"}
		b := lwwRegister{Val: v2, TS: int64(ts2 % 3), ID: "b"}
		c := lwwRegister{Val: v3, TS: int64(ts3 % 3), ID: "b"}
		return same(merged(a, b), merged(b, a)) &&
			same(merged(merged(a, b), c), merged(a, merged(b, c))) &&
			same(merged(a, a), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLWWCodec pins the register's JSON field names: they are the AP
// anti-entropy snapshot format.
func TestLWWCodec(t *testing.T) {
	l := &lwwRegister{Val: []byte("x"), TS: 42, ID: "r9"}
	data, err := json.Marshal(l)
	if err != nil || string(data) != `{"val":"eA==","ts":42,"id":"r9"}` {
		t.Fatalf("encoded %s, %v", data, err)
	}
	var got lwwRegister
	if err := json.Unmarshal(data, &got); err != nil || string(got.Val) != "x" || got.TS != 42 || got.ID != "r9" {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}
