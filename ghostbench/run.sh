#!/usr/bin/env bash
# Builds the benchmark and ghostsd from this checkout's sources, then runs
# the benchmark with the given arguments:
#
#   bash ghostbench/run.sh --workload serve|stream --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# per-run scratch files all live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/ghostbench" && go build -o "$out/ghostbench" .) >&2
go build -o "$out/ghostsd" ./cmd/ghostsd >&2
exec "$out/ghostbench" -ghostsd "$out/ghostsd" -workdir "$out" "$@"
