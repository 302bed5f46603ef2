package main

import (
	"encoding/binary"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/gateway"
	"iiotds/internal/store"
)

// fanParams sizes one tier-fanout run.
type fanParams struct {
	resources   int     // observable resources = store series
	perResource int     // observers per resource
	shards      int     // store partitions: the first half CP, the rest AP
	backlog     int     // readings in the backfill phase
	ingestSize  [2]int  // series × readings per write-throughput round
	liveRate    float64 // live readings per second (open loop)
	liveShare   float64 // share of --seconds the live phase lasts
	queryRate   float64 // reader operations per second (open loop)

	// Fault seams for the benchmark's negative tests: lose backfill
	// reading loseReading-1 (recorded as sent, never appended) and skip
	// deregistering observer leakObserver-1. Zero disables each.
	loseReading, leakObserver int
}

var (
	fanFull = fanParams{
		resources: 4096, perResource: 24, shards: 8, backlog: 100_000, ingestSize: [2]int{256, 512_000},
		liveRate: 2000, liveShare: 0.7, queryRate: 1000,
	}
	fanSmoke = fanParams{
		resources: 64, perResource: 4, shards: 4, backlog: 20_000, ingestSize: [2]int{16, 20_000},
		liveRate: 2000, liveShare: 0.7, queryRate: 500,
	}
)

// storeBatch is the store's default Appender batch size: the append
// that fills a series' batch sends it to the shard.
const storeBatch = 64

// warmIdx marks the representation published before any reading.
const warmIdx = ^uint64(0)

// readerAddr is the CoAP address the reader's GETs come from.
const readerAddr = "reader"

// obsToken is every observer's token: registrations are keyed by
// (address, token), so distinct addresses keep observers distinct.
var obsToken = []byte{0xbe, 0x0c}

// fanTransport is the in-process counting coap.Transport. It plays every
// observer: registration responses are counted, each notification's
// latency is taken from the reading's due time (its index travels in
// the payload), and each observer's last notification is kept for the
// final comparison against the cache.
type fanTransport struct {
	mu   sync.Mutex
	recv func(from string, data []byte)

	live      atomic.Bool
	due       []int64 // per live reading: due time, UnixNano
	lat       []int64 // notification latencies, ns, claimed by seq
	seq       atomic.Int64
	delivered atomic.Int64
	lastIdx   []atomic.Uint64        // per observer: last reading index seen
	refused   atomic.Int64           // storm responses without a success code
	reply     atomic.Pointer[[]byte] // the reader's last response
}

func (t *fanTransport) Send(addr string, data []byte) error {
	if addr == readerAddr {
		b := append([]byte(nil), data...)
		t.reply.Store(&b)
		return nil
	}
	if !t.live.Load() {
		if len(data) < 2 || !coap.Code(data[1]).IsSuccess() {
			t.refused.Add(1)
		}
		return nil
	}
	obs, err := strconv.Atoi(addr[1:])
	if err != nil || len(data) < 8 {
		t.refused.Add(1)
		return nil
	}
	idx := binary.BigEndian.Uint64(data[len(data)-8:])
	if idx < uint64(len(t.due)) {
		if i := t.seq.Add(1) - 1; i < int64(len(t.lat)) {
			t.lat[i] = time.Now().UnixNano() - t.due[idx]
		}
	}
	t.lastIdx[obs].Store(idx)
	t.delivered.Add(1)
	return nil
}

func (t *fanTransport) receiver() func(from string, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recv
}

func (t *fanTransport) SetReceiver(fn func(from string, data []byte)) {
	t.mu.Lock()
	t.recv = fn
	t.mu.Unlock()
}

func (t *fanTransport) LocalAddr() string { return "gw" }
func (t *fanTransport) Close() error      { return nil }

// fanTier is one built store + gateway.
type fanTier struct {
	st   *store.Sharded
	conn *coap.Conn
	gw   *gateway.Gateway
	http http.Handler
	tr   *fanTransport
}

func resourcePath(i int) string { return "plant/" + strconv.Itoa(i) }

func resourcePaths(p fanParams) []string {
	names := make([]string, p.resources)
	for i := range names {
		names[i] = resourcePath(i)
	}
	return names
}
func observerAddr(i int) string { return "o" + strconv.Itoa(i) }

// newStore builds the sharded store: the first half of the shards CP,
// the rest AP, three replicas each, on the wall clock.
func newStore(p fanParams, seed int64) *store.Sharded {
	per := map[int]store.ShardPolicy{}
	for i := 0; i < p.shards; i++ {
		mode := store.ModeAP
		if i < p.shards/2 {
			mode = store.ModeCP
		}
		per[i] = store.ShardPolicy{Mode: mode, Replicas: 3}
	}
	return store.NewSharded(&clock.System{}, store.ShardedConfig{Shards: p.shards, PerShard: per, Seed: seed})
}

// buildTier builds the store and the gateway with every resource
// registered and warm — the part setup_s times.
func buildTier(p fanParams, seed int64) *fanTier {
	sched := &clock.System{}
	t := &fanTier{tr: &fanTransport{lastIdx: make([]atomic.Uint64, p.resources*p.perResource)}}
	for i := range t.tr.lastIdx {
		t.tr.lastIdx[i].Store(warmIdx)
	}
	t.st = newStore(p, seed)
	t.conn = coap.NewConn(t.tr, sched, coap.ConnConfig{Seed: seed})
	t.gw = gateway.New(t.conn, gateway.Config{
		MaxObservers: p.perResource,
		ConfirmEvery: -1, // NON notifications: the fan-out hot path
		Sched:        sched,
	})
	warm := make([]byte, 8)
	binary.BigEndian.PutUint64(warm, warmIdx)
	for i := 0; i < p.resources; i++ {
		t.gw.AddResource(resourcePath(i), "reading", nil)
		t.gw.Publish(resourcePath(i), coap.FormatOctets, warm)
	}
	t.http = t.gw.HTTPHandler()
	return t
}

func (t *fanTier) close() {
	t.gw.Close()
	_ = t.conn.Close()
	t.st.Stop()
}

// observeRequest is a NON GET with the Observe option (0 registers,
// 1 deregisters).
func observeRequest(path string, obs uint32) []byte {
	m := &coap.Message{Type: coap.NonConfirmable, Code: coap.CodeGET, Token: obsToken, MessageID: 0x0b5e}
	m.AddUintOption(coap.OptObserve, obs)
	m.SetPath(path)
	data, err := m.Marshal()
	if err != nil {
		panic(err) // a fixed, valid message
	}
	return data
}

// fanSeries is the expected content of one store series, folded as it is
// generated: the final Range must return exactly these points.
type fanSeries struct {
	n    int
	hash uint64
}

func (s *fanSeries) add(p store.Point) {
	s.n++
	h := s.hash
	for _, v := range []uint64{uint64(p.T), uint64(int64(p.V * 1e6))} {
		h = (h ^ v) * 1099511628211
	}
	s.hash = h
}

// readingValue is reading i's sensor value.
func readingValue(rng *rand.Rand) float64 { return float64(rng.Intn(1_000_000)) / 1000 }

// spans are the traced run's timings around the public calls.
type spans struct {
	on                        bool
	appendNs                  int64
	appends                   int64
	cpFlush, apFlush          []float64 // us, appends that flushed a batch
	publishUs, rangeUs, getUs []float64
}

func (s *spans) since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

func runTierFanout(cfg config) *result {
	p := fanFull
	if cfg.smoke {
		p = fanSmoke
	}
	// Write throughput: closed-loop backfills into fresh stores of the
	// same shard layout. Each round spreads its readings over fewer
	// series than the tier has, so every series fills many batches: over
	// 4096 series a 100,000-reading backlog is 24 points a series, and no
	// 64-point batch ever fills before the final flush. The best round
	// counts: a single producer's rate moves by a third within one
	// process on a shared 2-vCPU host as the scheduler moves it between a
	// busier and a quieter CPU, while the best of the rounds repeats
	// within a few percent.
	var rates []float64
	for i := 0; i < ingestRounds; i++ {
		runtime.GC() // every round starts from the same collector state
		n := p.ingestSize[1]
		rates = append(rates, float64(n)/scratchBackfill(p, cfg.seed+int64(i), false).Seconds())
	}
	ingest := quantile(rates, 1)
	if !cfg.trace {
		r := runTier(cfg, p)
		r.e2e["work_per_s"] = ingest
		r.layer["ingest_readings_per_s"] = ingest
		return r
	}
	// The traced run's overhead: the same rounds with every Append timed.
	var traced []float64
	for i := 0; i < ingestRounds; i++ {
		runtime.GC()
		traced = append(traced, float64(p.ingestSize[1])/scratchBackfill(p, cfg.seed+int64(i), true).Seconds())
	}
	var r *result
	cpu := profileCPU(func() { r = runTier(cfg, p) })
	r.layer["bench.traced_rate_ratio"] = quantile(traced, 1) / ingest
	r.layer["ingest_readings_per_s"] = ingest
	for layer, share := range cpu {
		r.layer["cpu."+layer] = share
	}
	return r
}

// ingestRounds is how many write-throughput rounds work_per_s is the best of.
const ingestRounds = 15

// runTier is one tier-fanout run: setup, registration storm, backfill,
// live phase with the reader beside it, checks, deregistration storm.
func runTier(cfg config, p fanParams) *result {
	r := newResult()
	mem0 := readMem()

	// Setup: build the tier several times; keep the last.
	var setups []float64
	var tier *fanTier
	for i := 0; i < minSetups; i++ {
		if tier != nil {
			tier.close()
		}
		t0 := time.Now()
		tier = buildTier(p, cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer tier.close()
	tr := tier.tr
	recv := tr.receiver()
	observers := p.resources * p.perResource

	// Registration storm from nproc goroutines, each registration timed.
	workers := runtime.GOMAXPROCS(0)
	regUs := make([][]float64, workers)
	storm := func(obs uint32) time.Duration {
		reqs := make([][]byte, p.resources)
		for i := range reqs {
			reqs[i] = observeRequest(resourcePath(i), obs)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < observers; i += workers {
					if obs == 1 && i == p.leakObserver-1 {
						continue
					}
					t0 := time.Now()
					recv(observerAddr(i), reqs[i%p.resources])
					if obs == 0 {
						regUs[w] = append(regUs[w], float64(time.Since(t0).Nanoseconds())/1e3)
					}
				}
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}
	regWall := storm(0)
	registered := 0
	for i := 0; i < p.resources; i++ {
		registered += tier.gw.Server().Resource(resourcePath(i)).ObserverCount()
	}
	r.attempted += observers
	r.failed += observers - registered
	r.check("observers-registered", registered == observers && tr.refused.Load() == 0,
		"%d/%d registered, %d refused", registered, observers, tr.refused.Load())

	// Inputs, all drawn from the seed.
	rng := rand.New(rand.NewSource(cfg.seed))
	liveSeconds := cfg.seconds * p.liveShare
	live := int(p.liveRate * liveSeconds)
	tr.due = make([]int64, live)
	tr.lat = make([]int64, live*p.perResource)
	names := resourcePaths(p)
	expect := make([]fanSeries, p.resources)
	sp := &spans{on: cfg.trace}
	app := tier.st.NewAppender()
	batchFill := make([]int, p.resources) // appends since the series' last batch
	appendOne := func(k int, pt store.Point) {
		expect[k].add(pt)
		batchFill[k]++
		if !sp.on {
			app.Append(names[k], pt)
			return
		}
		t0 := time.Now()
		app.Append(names[k], pt)
		ns := time.Since(t0).Nanoseconds()
		sp.appendNs += ns
		sp.appends++
		if batchFill[k] == storeBatch { // this append flushed the series' batch
			batchFill[k] = 0
			if tier.st.Shard(tier.st.ShardOf(names[k])).Policy.Mode == store.ModeCP {
				sp.cpFlush = append(sp.cpFlush, float64(ns)/1e3)
			} else {
				sp.apFlush = append(sp.apFlush, float64(ns)/1e3)
			}
		}
	}
	flushAll := func() {
		app.Flush()
		clear(batchFill)
	}

	// The reader: open loop at queryRate through both phases, rotating
	// Range queries, CoAP GETs and HTTP reads; each timed from its due
	// time.
	var (
		stopReader             atomic.Bool
		readerWG               sync.WaitGroup
		queryLat, readLat      []float64 // us from due time
		queries, reads, qerr   int
		readerStart, readerEnd time.Time
	)
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		qrng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
		period := time.Duration(float64(time.Second) / p.queryRate)
		getReq := make([][]byte, 0)
		for i := 0; i < p.resources; i++ {
			m := &coap.Message{Type: coap.NonConfirmable, Code: coap.CodeGET, MessageID: uint16(i)}
			m.SetPath(resourcePath(i))
			b, _ := m.Marshal()
			getReq = append(getReq, b)
		}
		done := make(chan error, 1)
		readerStart = time.Now()
		for i := 0; !stopReader.Load(); i++ {
			due := readerStart.Add(time.Duration(i) * period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			k := qrng.Intn(p.resources)
			t0 := time.Now()
			var ok bool
			switch i % 4 {
			case 0, 1:
				tier.st.Range(names[k], 0, 1<<62, func(_ []store.Point, err error) { done <- err })
				ok = <-done == nil
				queries++
				queryLat = append(queryLat, float64(time.Since(due).Nanoseconds())/1e3)
				if sp.on {
					sp.rangeUs = append(sp.rangeUs, sp.since(t0))
				}
			case 2:
				tr.reply.Store(nil)
				recv(readerAddr, getReq[k])
				b := tr.reply.Load()
				ok = b != nil && len(*b) > 1 && coap.Code((*b)[1]) == coap.CodeContent
				reads++
				readLat = append(readLat, float64(time.Since(due).Nanoseconds())/1e3)
				if sp.on {
					sp.getUs = append(sp.getUs, sp.since(t0))
				}
			case 3:
				rec := httptest.NewRecorder()
				tier.http.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/last/"+names[k], nil))
				ok = rec.Code == http.StatusOK
				reads++
				readLat = append(readLat, float64(time.Since(due).Nanoseconds())/1e3)
				if sp.on {
					sp.getUs = append(sp.getUs, sp.since(t0))
				}
			}
			if !ok {
				qerr++
			}
		}
		readerEnd = time.Now()
	}()

	// Phase A, backfill: one producer appends the backlog as fast as the
	// store accepts it (closed loop).
	backStart := time.Now()
	for i := 0; i < p.backlog; i++ {
		k := rng.Intn(p.resources)
		pt := store.Point{T: time.Duration(i) * time.Millisecond, V: readingValue(rng)}
		if i == p.loseReading-1 {
			expect[k].add(pt)
			continue
		}
		appendOne(k, pt)
	}
	flushAll()
	backWall := time.Since(backStart)
	ackedA, failedA := app.Acked(), app.Failed()

	// Phase B, live: readings arrive open loop at liveRate; each is
	// appended and published, carrying its index so its observers'
	// deliveries are timed from its due time.
	var lagMs []float64
	tr.live.Store(true)
	liveStart := time.Now()
	flushEvery := 50 * time.Millisecond
	nextFlush := liveStart.Add(flushEvery)
	for i := 0; i < live; i++ {
		due := liveStart.Add(time.Duration(float64(i) / p.liveRate * float64(time.Second)))
		tr.due[i] = due.UnixNano()
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lagMs = append(lagMs, float64(time.Since(due).Nanoseconds())/1e6)
		k := rng.Intn(p.resources)
		appendOne(k, store.Point{T: time.Duration(p.backlog+i) * time.Millisecond, V: readingValue(rng)})
		payload := make([]byte, 8) // the gateway may hold it until fan-out
		binary.BigEndian.PutUint64(payload, uint64(i))
		t0 := time.Now()
		tier.gw.Publish(names[k], coap.FormatOctets, payload)
		if sp.on {
			sp.publishUs = append(sp.publishUs, sp.since(t0))
		}
		if time.Now().After(nextFlush) {
			flushAll()
			nextFlush = nextFlush.Add(flushEvery)
		}
	}
	flushAll()
	liveWall := time.Since(liveStart)
	stopReader.Store(true)
	readerWG.Wait()

	// Drain the fan-out pool: every queued job is delivered before the
	// pool stops (the drop count dies with the pool, so read it first).
	drops := tier.gw.Server().NotifyDropped()
	tier.gw.Server().StopNotifyPool()
	tr.live.Store(false)

	// Checks.
	total := p.backlog + live
	acked, failedBatches := app.Acked(), app.Failed()
	tier.st.Flush() // close every open head, so the stats see encoded segments
	stats := tier.st.Stats()
	r.attempted += total + queries + reads
	r.failed += int(failedBatches) + qerr
	r.check("readings-accounted", failedBatches == 0 && stats.TotalPoints() == uint64(total),
		"%d readings, store holds %d, %d batches acked (%d in backfill), %d failed (%d in backfill)",
		total, stats.TotalPoints(), acked, ackedA, failedBatches, failedA)
	bad := 0
	done := make(chan struct{}, 1)
	for k := range expect {
		var got fanSeries
		var rerr error
		tier.st.Range(names[k], 0, 1<<62, func(pts []store.Point, err error) {
			for _, pt := range pts {
				got.add(pt)
			}
			rerr = err
			done <- struct{}{}
		})
		<-done
		if rerr != nil || got != expect[k] {
			bad++
		}
	}
	r.check("range-exact", bad == 0, "%d/%d series return exactly their ingested points", len(expect)-bad, len(expect))
	converged := waitConverged(tier.st, 10*time.Second)
	heap := liveHeapMB() // the tier at rest: readings stored, observers registered
	r.check("replicas-converged", converged == tier.st.NumShards(), "%d/%d shards converged", converged, tier.st.NumShards())
	stale := 0
	for o := 0; o < observers; o++ {
		e, ok := tier.gw.Cache().Get(resourcePath(o % p.resources))
		if !ok || len(e.Payload) != 8 || binary.BigEndian.Uint64(e.Payload) != tr.lastIdx[o].Load() {
			stale++
		}
	}
	r.check("observers-current", stale == 0, "%d/%d observers' last notification equals the cached value", observers-stale, observers)
	gs := tier.gw.Stats()
	delivered := tr.delivered.Load()
	r.failed += int(drops)
	r.check("notifications-delivered", delivered == int64(live*p.perResource) && drops == 0,
		"%d of %d notifications delivered, %d jobs dropped", delivered, live*p.perResource, drops)

	deregWall := storm(1)
	leaked := 0
	for i := 0; i < p.resources; i++ {
		leaked += tier.gw.Server().Resource(resourcePath(i)).ObserverCount()
	}
	r.attempted += observers
	r.failed += leaked
	r.check("observers-leaked", leaked == 0, "%d observers left after the deregister storm (%.2f s)", leaked, deregWall.Seconds())

	// Metrics.
	n := min(int(tr.seq.Load()), len(tr.lat))
	notify := make([]float64, n)
	for i, v := range tr.lat[:n] {
		notify[i] = float64(v) / 1e6
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["heap_mb"] = heap
	r.e2e["latency_p50_ms"] = quantile(notify, 0.5)
	r.e2e["latency_p90_ms"] = quantile(notify, 0.9)

	l := r.layer
	var allReg []float64
	for _, w := range regUs {
		allReg = append(allReg, w...)
	}
	l["query_p99_us"] = quantile(queryLat, 0.99)
	l["notify_p50_ms"] = quantile(notify, 0.5)
	l["notify_p99_ms"] = quantile(notify, 0.99)
	l["register_per_s"] = float64(observers) / regWall.Seconds()
	l["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	l["store.append_ns"] = ratio(float64(sp.appendNs), float64(sp.appends))
	l["store.cp_flush_us_p99"] = quantile(sp.cpFlush, 0.99)
	l["store.ap_flush_us_p99"] = quantile(sp.apFlush, 0.99)
	l["store.range_us_p50"] = quantile(sp.rangeUs, 0.5)
	l["store.range_us_p99"] = quantile(sp.rangeUs, 0.99)
	var bytes, points, segs, compactions float64
	for _, sh := range stats.Shards {
		bytes += float64(sh.Engine.Bytes)
		points += float64(sh.Engine.Retained)
		segs += float64(sh.Engine.SegsClosed)
		compactions += float64(sh.Engine.Compactions)
	}
	l["store.bytes_per_point"] = ratio(bytes, points)
	l["store.segments_closed"] = segs
	l["store.compactions"] = compactions
	l["store.failed_batches"] = float64(failedBatches)
	l["store.converged_shards"] = float64(converged)
	l["gateway.publish_ns"] = 1e3 * ratio(sum(sp.publishUs), float64(len(sp.publishUs)))
	l["gateway.publish_us_p99"] = quantile(sp.publishUs, 0.99)
	l["gateway.coalesced_ratio"] = ratio(float64(gs.Coalesced), float64(gs.Offered))
	l["gateway.pushes"] = float64(gs.Published)
	l["gateway.cache_get_us_p99"] = quantile(sp.getUs, 0.99)
	l["coap.notify_sends"] = float64(delivered)
	l["coap.notify_jobs_dropped"] = float64(drops)
	l["coap.register_us_p99"] = quantile(allReg, 0.99)
	l["load.gen_lag_p99_ms"] = quantile(lagMs, 0.99)
	l["load.query_rate"] = float64(queries+reads) / readerEnd.Sub(readerStart).Seconds()
	runtimeLayer(r, mem0, float64(total+observers*2+queries+reads))
	fillZero(l)

	r.note("tier-fanout: %d resources x %d observers, %d CP + %d AP shards x 3 replicas",
		p.resources, p.perResource, p.shards/2, p.shards-p.shards/2)
	r.note("backfill %d readings in %.2f s; live %d readings at %.0f/s in %.2f s; reader %d queries + %d cache reads, p99 %.0f us / %.0f us from due time",
		p.backlog, backWall.Seconds(), live, p.liveRate, liveWall.Seconds(), queries, reads,
		quantile(queryLat, 0.99), quantile(readLat, 0.99))
	r.note("registration storm %.2f s (%.0f/s), %d notifications, %d samples",
		regWall.Seconds(), float64(observers)/regWall.Seconds(), delivered, n)
	return r
}

// scratchBackfill times one write-throughput round: p.ingestSize
// readings appended to a fresh store with no gateway beside it. traced
// times every Append, as the traced run's spans do.
func scratchBackfill(p fanParams, seed int64, traced bool) time.Duration {
	st := newStore(p, seed)
	defer st.Stop()
	app := st.NewAppender()
	names := make([]string, p.ingestSize[0])
	for i := range names {
		names[i] = resourcePath(i)
	}
	rng := rand.New(rand.NewSource(seed))
	var spanNs time.Duration
	t0 := time.Now()
	for i := 0; i < p.ingestSize[1]; i++ {
		k := rng.Intn(len(names))
		pt := store.Point{T: time.Duration(i) * time.Millisecond, V: readingValue(rng)}
		if !traced {
			app.Append(names[k], pt)
			continue
		}
		s := time.Now()
		app.Append(names[k], pt)
		spanNs += time.Since(s)
	}
	app.Flush()
	d := time.Since(t0)
	runtime.KeepAlive(spanNs)
	return d
}

// waitConverged polls until every shard's replicas agree or the timeout
// passes, returning the converged shard count.
func waitConverged(st *store.Sharded, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for !st.Converged() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	return st.ConvergedShards()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
