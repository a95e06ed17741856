#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the binary. Run from the repository root:
#
#   bash bench/run.sh --workload udp-n4 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the current directory, so a checkout is
# left with nothing outside itself.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
