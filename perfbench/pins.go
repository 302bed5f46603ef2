package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// pinned holds the expected digest of each mesh workload per seed, at
// the full (non-smoke) size. A change that alters any deterministic
// output (event counts, deliveries, virtual latencies) changes the
// digest and fails the digest-pinned check; a change meant to alter
// behaviour regenerates the table with --pin and says so.
//
// Regenerate with:
//
//	perfbench --workload city-mesh --pin 0,1,...,20
//	perfbench --workload plant-floor --pin 0,1,...,20
var pinned = map[string]map[int64]string{
	"city-mesh": {
		0:  "e7d94a7dc0a35470",
		1:  "207e618d202ae2c1",
		2:  "d02eb4bea6d43f41",
		3:  "622d127865370a1d",
		4:  "e93d86b3aaf0ed88",
		5:  "1dbf5b83f11c4b4c",
		6:  "d60c97348f059ad8",
		7:  "d554d898fbb04006",
		8:  "98ad8b2c826ec370",
		9:  "6e6f747879709ffa",
		10: "437db791c8db9432",
		11: "2a65072539b6f646",
		12: "4de4b3579c711a4a",
		13: "caf3af2062817478",
		14: "2b0de9ea736cd154",
		15: "3c79e3c85d22927f",
		16: "8adc0fc4faac1119",
		17: "16836b4f0142998a",
		18: "d60775892e185937",
		19: "86b4e5aed60b2ba6",
		20: "3928a757be50ae8c",
	},
	"plant-floor": {
		0:  "dc87b183664dfd46",
		1:  "bff8087c5044bb21",
		2:  "087783b5426beedb",
		3:  "ba348b819bf3a795",
		4:  "fa0be65730c0b698",
		5:  "610075598b54ddaa",
		6:  "bcfc37793b3dde5e",
		7:  "0a79e629cfce9442",
		8:  "148484013cd9ed3b",
		9:  "a268d2f11a9d058f",
		10: "4febc23fc5743eb0",
		11: "5e93cacdf381eb86",
		12: "b878e8d67ada2332",
		13: "3fe66df4abe15123",
		14: "ddaabec1664e4aef",
		15: "368da27a1035db23",
		16: "6f30d7bf24e898c9",
		17: "6f58b00ac6060317",
		18: "07ef24bd740591af",
		19: "27ce8c605b857ded",
		20: "bd9f87ec715f1f8f",
	},
}

// pinnedDigest returns the pinned digest for seed, if any. Smoke-sized
// runs have no pins.
func pinnedDigest(workload string, cfg config) (string, bool) {
	if cfg.smoke {
		return "", false
	}
	d, ok := pinned[workload][cfg.seed]
	return d, ok
}

// printPins runs the workload's unit once per listed seed and prints Go
// source for the pinned table entry.
func printPins(cfg config, seeds string, w, errw io.Writer) int {
	units := map[string]func(seed int64) string{
		"city-mesh":   func(s int64) string { return runCityCycle(cityFull, s, 2, false).digest },
		"plant-floor": func(s int64) string { return runPlantRep(plantFull, s, false).digest },
	}
	unit, ok := units[cfg.workload]
	if !ok {
		fmt.Fprintf(errw, "perfbench: %s has no digest\n", cfg.workload)
		return 2
	}
	fmt.Fprintf(w, "\t%q: {\n", cfg.workload)
	for _, f := range strings.Split(seeds, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(errw, "perfbench: bad seed %q\n", f)
			return 2
		}
		fmt.Fprintf(w, "\t\t%d: %q,\n", s, unit(s))
	}
	fmt.Fprintln(w, "\t},")
	return 0
}
