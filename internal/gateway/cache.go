package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/netbuf"
)

// Entry is one cached representation. Entries are immutable once stored:
// Set swaps in a fresh entry, so a reader's snapshot (including the
// payload slice) stays valid while a writer replaces it.
type Entry struct {
	Payload       []byte
	ContentFormat uint32
	Seq           uint64        // monotonically increasing per path
	At            time.Duration // scheduler time of the Set
}

// Cache is the gateway's last-value store: one entry per resource path,
// written on every representation push, read by the CoAP GET handler and
// the HTTP/JSON polling path — which is what keeps a million dashboard
// clients from ever touching the constrained mesh.
type Cache struct {
	sched clock.Scheduler

	mu sync.RWMutex
	m  map[string]*Entry

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns an empty cache stamped by sched.
func NewCache(sched clock.Scheduler) *Cache {
	return &Cache{sched: sched, m: make(map[string]*Entry)}
}

// Set stores the latest representation for path (payload is copied).
func (c *Cache) Set(path string, contentFormat uint32, payload []byte) {
	now := c.sched.Now()
	c.mu.Lock()
	var seq uint64 = 1
	if old, ok := c.m[path]; ok {
		seq = old.Seq + 1
	}
	c.m[path] = &Entry{
		Payload:       netbuf.CloneBytes(payload),
		ContentFormat: contentFormat,
		Seq:           seq,
		At:            now,
	}
	c.mu.Unlock()
}

// Get returns the cached representation for path.
func (c *Cache) Get(path string) (Entry, bool) {
	c.mu.RLock()
	e, ok := c.m[path]
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return Entry{}, false
	}
	c.hits.Add(1)
	return *e, true
}

// Age reports how long ago the entry was stored.
func (c *Cache) Age(e Entry) time.Duration { return c.sched.Now() - e.At }

// Len returns the number of cached paths.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// HitsMisses reports read-path counters.
func (c *Cache) HitsMisses() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
