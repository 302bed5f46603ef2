#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload city-mesh --seed 1 --seconds 12 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the
# binary and the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
