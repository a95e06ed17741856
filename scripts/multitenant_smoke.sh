#!/usr/bin/env bash
# CI smoke for the multi-tenant multiplexer (internal/multi, the
# tenants dimension of internal/sweep).
#
# Six gates:
#
#   1. oracle equivalence at smoke scale — 100 tenants multiplexed on
#      one engine must replay 100 standalone single-tenant engines
#      byte for byte (clock traces, phase-3 rand streams, message and
#      byte counters), plus the full differential suite (adversaries x
#      n x workers x pool modes) and the per-tenant convergence
#      measurement;
#   2. race freedom — the worker-group fan-out, shared arenas and
#      per-group batchers under the race detector;
#   3. resident-memory floor — bytes/resident-tenant must hold its
#      gate (the measured reading plus 10 %) at T=1000, and (on machines with >= 16 GB RAM)
#      the full T=100,000 proof: a hundred thousand tenants resident
#      and stepping on one engine, still under the per-tenant gate;
#   4. networked multi-tenancy — the tenant-batched wire path: a
#      multi-tenant Lockstep cluster must match per-tenant standalone
#      engine oracles across the adversary x fault grid under the race
#      detector, frames/beat must be independent of tenant count, and
#      the batch decoder's corpus must pass with payload poisoning;
#   5. sweep integration — a tenants=100 grid cell executes end to end
#      through the real sweep binary and reports every tenant
#      converged, deterministically across worker counts;
#   6. networked sweep — udp/tcp nettenants units replay their engine
#      twins' convergence fold exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== differential: T=100 grid matches the single-instance oracle =="
go test -count=1 -run 'TestDifferential//^multi-T100-' ./internal/difftest/
go test -count=1 -run 'TestMeasureConvergence' ./internal/multi/

echo "== differential suite under the race detector =="
go test -race -count=1 -run 'TestDifferential//^multi-T[34]-' ./internal/difftest/

echo "== resident-memory floor: bytes/tenant gate at T=1000 =="
go test -count=1 -run 'TestResidentFootprintFloor' ./internal/multi/

# The T=100k proof holds ~6 GB of live heap; skip it on small runners
# rather than OOM-kill the job, and say so loudly.
mem_kb="$(awk '/MemTotal/ {print $2}' /proc/meminfo 2>/dev/null || echo 0)"
if [ "$mem_kb" -ge $((16 * 1024 * 1024)) ]; then
  echo "== resident-memory floor: T=100,000 tenants on one engine =="
  SSBYZ_SMOKE_100K=1 go test -count=1 -timeout 30m -run 'TestResident100K' -v ./internal/multi/ | grep -v '^=== '
else
  echo "== skipping the T=100,000 footprint proof: machine has ${mem_kb} kB RAM (< 16 GB) =="
fi

echo "== networked multi-tenancy: batched frames vs per-tenant oracles, -race =="
go test -race -count=1 -run 'TestDifferential/^n(4-.*-s41-b24|8-.*-s97-b60)$/^lockstep-T(3-on|[13]-poison)$' ./internal/difftest/
go test -race -count=1 -run 'TestFramesIndependentOfTenants' ./internal/noderuntime/

echo "== batch frame decoder: corpus + poisoned-payload soak =="
go test -count=1 -run 'FuzzDecodeBatchPayload|TestBatchPayload' ./internal/wire/

echo "== sweep: a tenants=100 unit aggregates its standalone folds =="
go test -count=1 -run 'TestTenantsDimension' ./internal/sweep/

echo "== sweep: udp/tcp nettenants units replay their engine twins =="
go test -count=1 -run 'TestNetsDimension' ./internal/sweep/

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/sweep" ./cmd/sweep
"$tmp/sweep" -store "$tmp/mt" -v -exp multitenant -runs 1 -maxbeats 300 -hold 8 all | tee "$tmp/mt.report"
grep -q "converged=true" "$tmp/mt.report" || { echo "multitenant sweep produced no convergence rows" >&2; exit 1; }
if grep -q "converged=false" "$tmp/mt.report"; then
  echo "a multiplexed tenant failed to converge within the smoke budget" >&2
  exit 1
fi

echo "multitenant smoke OK"
