#!/usr/bin/env bash
# Capture CPU and allocation profiles of the per-beat benchmark and print
# the top-10 flat CPU consumers and the top-10 allocation sites by
# object count — the fastest way to see where a beat's time and garbage
# come from after a kernel, sweep or adversary change. Extra args are
# passed to `go test`:
#
#   ./scripts/profile.sh                              # FM shared layout, n=16
#   ./scripts/profile.sh -benchtime=5s                # longer sample
#   BENCH_RE='^BenchmarkBeat$/^ClockSyncFM$/^n=32$' ./scripts/profile.sh
#   BENCH_RE='^BenchmarkBeat$/^ClockSyncFMSplitter$/^n=16$' ./scripts/profile.sh   # adversary boundary
#   BENCH_RE='^BenchmarkBeatMultiTenant$/^ClockSyncFM$/^n=4$/^T=1000$' ./scripts/profile.sh   # multi-tenant shape
#
# The profiles and the test binary they resolve symbols against are left
# in $PROFILE_DIR (default: a fresh temp dir, printed at the end) for
# interactive follow-up with `go tool pprof`.
set -euo pipefail
cd "$(dirname "$0")/.."

re="${BENCH_RE:-^BenchmarkBeat\$/^ClockSyncFM\$/^n=16\$}"
dir="${PROFILE_DIR:-$(mktemp -d)}"
mkdir -p "$dir"

go test -run=NONE -bench="$re" -benchtime="${BENCH_TIME:-3s}" -benchmem \
  -cpuprofile "$dir/cpu.prof" -memprofile "$dir/mem.prof" -o "$dir/beat.test" "$@" .

echo >&2
echo "top-10 flat:" >&2
go tool pprof -top -flat -nodecount=10 "$dir/beat.test" "$dir/cpu.prof"
echo >&2
echo "top-10 by alloc_objects:" >&2
go tool pprof -top -flat -nodecount=10 -sample_index=alloc_objects "$dir/beat.test" "$dir/mem.prof"
echo >&2
echo "profiles: $dir/cpu.prof $dir/mem.prof (binary: $dir/beat.test)" >&2
