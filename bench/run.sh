#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload paper-mem --seed 7 --seconds 12 --trace 0
#   bash bench/run.sh                       # all workloads, 5 interleaved repetitions
#
# Everything the build and the runs write (Go build cache, temp files,
# the binary) stays under .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

go -C "$root/bench" build -o "$out/dnsloc-bench" .
exec "$out/dnsloc-bench" "$@"
