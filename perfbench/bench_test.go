package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func smoke(workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.5, trace: trace, smoke: true}
}

// lastLine decodes the JSON result line a render printed.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return v
}

func failedChecks(r *result) []string {
	var out []string
	for _, c := range r.checks {
		if !c.ok {
			out = append(out, c.name+": "+c.detail)
		}
	}
	return out
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// requires every check to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smoke(name, trace)
			res := workloads[name](cfg)
			if bad := failedChecks(res); len(bad) > 0 {
				t.Errorf("%s trace=%v: failed checks %v", name, trace, bad)
			}
			var out bytes.Buffer
			if code := render(cfg, res, &out); code != 0 {
				t.Errorf("%s trace=%v: exit %d\n%s", name, trace, code, out.String())
			}
			v := lastLine(t, out.String())
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if got := len(v["metrics"].(map[string]any)); got != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, got, want)
			}
			if trace {
				var cpu float64
				for _, l := range cpuLayers {
					cpu += res.layer["cpu."+l]
				}
				// A tiny smoke run may take no profile samples at all.
				if cpu != 0 && math.Abs(cpu-100) > 0.5 {
					t.Errorf("%s: cpu shares sum to %.2f%%", name, cpu)
				}
			} else {
				for _, d := range endToEnd {
					if res.e2e[d.name] <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, res.e2e[d.name])
					}
				}
			}
		}
	}
}

// TestMeshDigestInvariant pins the determinism contract the digest
// checks rely on: the same seed gives the same digest at one and at two
// workers, and with the MAC timing wrapper on or off.
func TestMeshDigestInvariant(t *testing.T) {
	a := runCityCycle(citySmoke, 5, 1, false).digest
	b := runCityCycle(citySmoke, 5, 2, true).digest
	if a != b {
		t.Errorf("city-mesh digest: 1 worker untraced %s, 2 workers traced %s", a, b)
	}
	if c := runCityCycle(citySmoke, 6, 2, false).digest; c == a {
		t.Errorf("city-mesh digest %s does not depend on the seed", c)
	}
	p, q := runPlantRep(plantSmoke, 5, false).digest, runPlantRep(plantSmoke, 5, true).digest
	if p != q {
		t.Errorf("plant-floor digest: untraced %s, traced %s", p, q)
	}
}

// TestCorruptedDigestFails shows a digest that differs from its pin, or
// between repetitions, fails the run.
func TestCorruptedDigestFails(t *testing.T) {
	cfg := smoke("city-mesh", false)
	cfg.smoke = false // pins apply to full-size runs only
	want := runCityCycle(citySmoke, cfg.seed, 2, false).digest
	pinned["city-mesh"] = map[int64]string{cfg.seed: "0000000000000000"}
	defer delete(pinned, "city-mesh")
	if got, ok := pinnedDigest("city-mesh", cfg); !ok || got == want {
		t.Fatalf("pin lookup: %q %v", got, ok)
	}
	r := newResult()
	checkDigests(r, "city-mesh", cfg, []*meshRep{{digest: want}, {digest: want}})
	if r.correct() {
		t.Fatal("a digest differing from its pin passed")
	}
	r = newResult()
	checkDigests(r, "city-mesh", smoke("city-mesh", false), []*meshRep{{digest: want}, {digest: want + "x"}})
	if r.correct() {
		t.Fatal("repetitions with different digests passed")
	}
	var out bytes.Buffer
	if code := render(smoke("city-mesh", false), r, &out); code != 1 {
		t.Fatalf("exit %d for a failed check, want 1", code)
	}
	if v := lastLine(t, out.String()); v["correct"] != false || v["failed"].(float64) < 1 {
		t.Fatalf("result line %v", v)
	}
}

// TestLostReadingFails shows one reading that never reaches the store
// fails the tier-fanout checks.
func TestLostReadingFails(t *testing.T) {
	p := fanSmoke
	p.loseReading = 17
	r := runTier(smoke("tier-fanout", false), p)
	bad := strings.Join(failedChecks(r), "; ")
	if !strings.Contains(bad, "readings-accounted") || !strings.Contains(bad, "range-exact") {
		t.Fatalf("lost reading not caught; failed checks: %q", bad)
	}
}

// TestLeakedObserverFails shows one observer left registered after the
// deregister storm fails the tier-fanout checks.
func TestLeakedObserverFails(t *testing.T) {
	p := fanSmoke
	p.leakObserver = 5
	r := runTier(smoke("tier-fanout", false), p)
	if bad := strings.Join(failedChecks(r), "; "); !strings.Contains(bad, "observers-leaked") {
		t.Fatalf("leaked observer not caught; failed checks: %q", bad)
	}
	if r.failed < 2 { // the check and the leaked observer itself
		t.Fatalf("failed = %d, want the leak counted", r.failed)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metric tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(doc.Workloads), len(workloads))
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i] != (metric{w.name, w.unit, w.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, here %+v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestFoldProfile checks the pprof decoder on a real profile.
func TestFoldProfile(t *testing.T) {
	x := 0.0
	shares := profileCPU(func() {
		for i := 0; i < 60_000_000; i++ {
			x += math.Sqrt(float64(i))
		}
	})
	if x == 0 || shares == nil {
		t.Fatal("no profile")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum != 0 && (math.Abs(sum-100) > 0.5 || shares["bench"] < 50) {
		t.Fatalf("shares %v (sum %.2f)", shares, sum)
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "city-mesh", "--trace", "2"},
		{"--workload", "city-mesh", "--seconds", "0"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %s", args, out.String())
		}
	}
}
