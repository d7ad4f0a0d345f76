#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. This is the
# command BENCHMARK.json names; every argument goes to the program:
#
#   bash benchmark/run.sh --workload fig3_l0 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, op logs and traces all live under
# .bench_build in the checkout, so a run reads and writes nothing else.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"

# Without the program there is nothing to measure: say so before any
# tool is started.
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: no go.mod in $root: the program under test is not here" >&2
	exit 2
fi

# Telemetry off in the private config dir: with a fresh config dir the
# go command would otherwise start a detached telemetry sidecar that
# outlives the run.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

# go build is a no-op (about 0.2 s) once the cache is warm.
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o "$out/benchmark" ./benchmark

exec "$out/benchmark" -workdir "$out" "$@"
