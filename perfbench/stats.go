package main

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place),
// or 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest folds deterministic outputs into one FNV-1a value. Two runs of
// the same seed must produce the same digest at any worker count and
// with tracing on or off.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) i64(v int64)   { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
}

// durations folds a virtual-latency sample set, order-independently.
func (d *digest) durations(xs []time.Duration) {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d.u64(uint64(len(s)))
	for _, x := range s {
		d.i64(int64(x))
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// vms converts virtual durations to float milliseconds.
func vms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// memSnapshot is the runtime counters a run reports.
type memSnapshot struct {
	mallocs uint64
	numGC   uint32
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{mallocs: ms.Mallocs, numGC: ms.NumGC}
}

// liveHeapMB collects garbage and returns the live heap in MiB. Callers
// keep the measured system reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeLayer fills the Go runtime per-layer metrics for ops units of
// work done between before and now.
func runtimeLayer(r *result, before memSnapshot, ops float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer["runtime.allocs_per_op"] = ratio(float64(ms.Mallocs-before.mallocs), ops)
	r.layer["runtime.gc_cycles"] = float64(ms.NumGC - before.numGC)
	r.layer["runtime.gc_cpu_fraction"] = ms.GCCPUFraction
}

// provenance describes the host and the code under test.
func provenance(cfg config) []string {
	host, _ := os.Hostname()
	return []string{
		fmt.Sprintf("workload=%s seed=%d held_out_seed=%d seconds=%g trace=%v",
			cfg.workload, cfg.seed, heldOutSeed, cfg.seconds, cfg.trace),
		fmt.Sprintf("host=%s nproc=%d gomaxprocs=%d go=%s os=%s/%s",
			host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("commit=%s source_digest=%s", gitCommit(repoRoot()), sourceDigest(repoRoot())),
	}
}

// repoRoot is the checkout root: the working directory when the
// benchmark runs from the root (as run.sh does), its parent when it
// runs from perfbench/ (as go test does).
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}

// gitCommit reads HEAD from a .git directory under root, without
// running git; "none" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(strings.TrimPrefix(ref, "ref: ")))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == strings.TrimPrefix(ref, "ref: ") {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod, so a record
// names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := fnv.New64a()
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
