// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the program's public APIs, checks the
// outputs, and prints every metric by name and unit.
//
//	go build -o perfbench . && ./perfbench --workload city-mesh --seed 1 --seconds 30 --trace 0
//
// Workloads (NOTES.md explains each choice):
//
//	city-mesh    sparse RGG fleet striped over 8 kernels, virtual time
//	plant-floor  CSMA backbone + LPL leaves on one kernel via scenario.Run
//	tier-fanout  sharded store + observe gateway on the wall clock, no mesh
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 a separate traced run (MAC timing wrapper, spans around the
// public calls, CPU profile) carries the per-layer metrics. Every line
// before the last is human-readable: provenance, checks, and the
// workload's own metrics under their names. The exit status is 1 when
// any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// heldOutSeed is the seed later performance claims are rechecked on; it
// is never used while tuning a change.
const heldOutSeed = 7

// metricDef names one reported metric. The end-to-end and per-layer
// tables below are mirrored by BENCHMARK.json (TestBenchmarkJSON pins
// the two together).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every --trace 0 run reports, on every
// workload. Each has one meaning per workload, given in NOTES.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
}

// perLayer are the metrics every --trace 1 run reports. A metric a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// The workload-specific end-to-end figures, under their own names.
	{"node_sim_s_per_wall_s", "1/s", "higher"},
	{"uplink_delivery_ratio", "ratio", "higher"},
	{"uplink_p50_vms", "ms", "lower"},
	{"uplink_p99_vms", "ms", "lower"},
	{"probe_success_ratio", "ratio", "higher"},
	{"probe_p99_vms", "ms", "lower"},
	{"ingest_readings_per_s", "1/s", "higher"},
	{"query_p99_us", "us", "lower"},
	{"notify_p50_ms", "ms", "lower"},
	{"notify_p99_ms", "ms", "lower"},
	{"register_per_s", "1/s", "higher"},
	{"failed_ratio", "ratio", "lower"},
	{"bench.traced_rate_ratio", "ratio", "higher"},
	// sim
	{"sim.events_fired", "count", "lower"},
	{"sim.host_ns_per_event", "ns", "lower"},
	{"sim.max_heap_depth", "count", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.stripe_imbalance", "ratio", "lower"},
	{"sim.stripe_speedup", "ratio", "higher"},
	// radio
	{"radio.tx_frames", "count", "lower"},
	{"radio.rx_frames", "count", "lower"},
	{"radio.rx_per_tx", "ratio", "lower"},
	{"radio.collisions", "count", "lower"},
	{"radio.dropped_loss", "count", "lower"},
	// mac (benchmark-owned Factories.MAC wrapper)
	{"mac.sends", "count", "lower"},
	{"mac.send_ok_ratio", "ratio", "higher"},
	{"mac.rx_calls", "count", "lower"},
	{"mac.upcall_ratio", "ratio", "higher"},
	{"mac.self_ns_per_rx", "ns", "lower"},
	// link and the stack above it
	{"link.upcall_ns", "ns", "lower"},
	// rpl
	{"rpl.dio_sent", "count", "lower"},
	{"rpl.dao_sent", "count", "lower"},
	{"rpl.datagrams_forwarded", "count", "lower"},
	{"rpl.no_route_drops", "count", "lower"},
	{"rpl.parent_switches", "count", "lower"},
	// netbuf, coap on the mesh
	{"netbuf.pool_misses", "count", "lower"},
	{"coap.probe_pending", "count", "lower"},
	// scenario, trace, fault, security
	{"scenario.violations", "count", "lower"},
	{"trace.events", "count", "lower"},
	{"trace.dropped", "count", "lower"},
	{"fault.crashes", "count", "lower"},
	{"fault.recoveries", "count", "higher"},
	{"security.heartbeat_ok_ratio", "ratio", "higher"},
	// store
	{"store.append_ns", "ns", "lower"},
	{"store.cp_flush_us_p99", "us", "lower"},
	{"store.ap_flush_us_p99", "us", "lower"},
	{"store.range_us_p50", "us", "lower"},
	{"store.range_us_p99", "us", "lower"},
	{"store.bytes_per_point", "B", "lower"},
	{"store.segments_closed", "count", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.failed_batches", "count", "lower"},
	{"store.converged_shards", "count", "higher"},
	// gateway, coap observe
	{"gateway.publish_ns", "ns", "lower"},
	{"gateway.publish_us_p99", "us", "lower"},
	{"gateway.coalesced_ratio", "ratio", "higher"},
	{"gateway.pushes", "count", "lower"},
	{"gateway.cache_get_us_p99", "us", "lower"},
	{"coap.notify_sends", "count", "higher"},
	{"coap.notify_jobs_dropped", "count", "lower"},
	{"coap.register_us_p99", "us", "lower"},
	// load generator
	{"load.gen_lag_p99_ms", "ms", "lower"},
	{"load.query_rate", "1/s", "higher"},
	// Go runtime
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
}

// cpuLayers are the buckets of the traced run's CPU profile, reported
// as cpu.<layer> shares (percent) that sum to 100.
var cpuLayers = []string{
	"sim", "radio", "mac", "link", "lowpan", "netbuf", "rpl", "coap",
	"security", "trace", "metrics", "scenario", "core", "store", "gossip",
	"gateway", "runtime", "sync", "bench", "other",
}

func init() {
	for _, l := range cpuLayers {
		perLayer = append(perLayer, metricDef{"cpu." + l, "%", "lower"})
	}
}

// result is one run's outcome: its checks, operation counts, and
// metrics. Workloads fill it; main renders it.
type result struct {
	attempted, failed int
	checks            []checkResult
	e2e               map[string]float64 // endToEnd names
	layer             map[string]float64 // perLayer names
	notes             []string           // extra human-readable lines
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one correctness check. A failed check counts as a
// failed operation and makes the command exit 1.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed.
func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // tiny sizes for the benchmark's own tests
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) *result{
	"city-mesh":   runCityMesh,
	"plant-floor": runPlantFloor,
	"tier-fanout": runTierFanout,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: city-mesh, plant-floor or tier-fanout")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured time per run, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0 = end-to-end run, 1 = traced per-layer run")
	pin := fs.String("pin", "", "print the digests of this comma-separated seed list for --workload and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want city-mesh, plant-floor or tier-fanout)\n", cfg.workload)
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	cfg.trace = traceFlag == 1
	if *pin != "" {
		return printPins(cfg, *pin, stdout, stderr)
	}

	for _, line := range provenance(cfg) {
		fmt.Fprintln(stdout, "# "+line)
	}
	res := runner(cfg)
	return render(cfg, res, stdout)
}

// render prints the human-readable report and, last, the JSON line.
func render(cfg config, res *result, w io.Writer) int {
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-28s %-4s %s\n", c.name, status, c.detail)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note "+n)
	}
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
	}
	// Human table: the end-to-end metrics and, on every run, the
	// workload-specific figures under their own names.
	for _, d := range endToEnd {
		if v, ok := res.e2e[d.name]; ok {
			fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.layer[d.name]; ok {
			fmt.Fprintf(w, "layer  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   res.correct(),
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(w, "check %-28s FAIL %s\n", "metrics-complete", strings.Join(missing, ","))
		out.Correct = false
		out.Failed++
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(data))
	if !out.Correct {
		return 1
	}
	return 0
}
