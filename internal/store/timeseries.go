// Package store is the data-storage tier of the three-layer architecture
// (Fig. 1): a bounded time-series store for telemetry and a replicated
// key-value store that can run in CP (quorum) or AP (CRDT) mode — the two
// ends of the CAP trade-off §V-C analyzes for always-on industrial
// systems.
package store

import (
	"sort"
	"sync"
	"time"
)

// Point is one telemetry sample.
type Point struct {
	T time.Duration // virtual or wall time since start
	V float64
}

// tsdbRetention is the per-series point budget of a TSDB.
const tsdbRetention = 4096

// TSDB is a set of named series, each a SeriesEngine retaining the
// newest tsdbRetention points.
type TSDB struct {
	mu     sync.Mutex
	series map[string]*SeriesEngine
}

// NewTSDB creates an empty store.
func NewTSDB() *TSDB {
	return &TSDB{series: make(map[string]*SeriesEngine)}
}

// Series returns (creating if needed) the named series.
func (db *TSDB) Series(name string) *SeriesEngine {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[name]
	if !ok {
		s = NewSeriesEngine(0)
		s.SetRetention(tsdbRetention)
		db.series[name] = s
	}
	return s
}

// Names returns all series names, sorted.
func (db *TSDB) Names() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.series))
	for n := range db.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
