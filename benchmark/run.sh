#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything it writes (Go build cache, binary, the counter
# replicas' state files) goes under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh                      all four workloads, both windows, probes
#   bash benchmark/run.sh --workload dist-write --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -aa 10               the A/A check behind AA.md
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C benchmark -o "$build/treaty-benchmark" .
exec "$build/treaty-benchmark" "$@"
