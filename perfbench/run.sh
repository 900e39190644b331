#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload ior-lln --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -C "$root/perfbench" -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
