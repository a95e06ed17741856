#!/usr/bin/env bash
# CI smoke for the event-driven networked runtime (internal/net,
# internal/faultnet, internal/noderuntime, cmd/soak).
#
# Two gates, both under the race detector:
#
#   1. equivalence — the lockstep cluster over the in-process transport
#      must replay the deterministic engine's trace (honest clocks, rand
#      bits, every inbox) beat for beat, across the adversary suite and
#      the fault-schedule grid: the Lockstep cells of the differential
#      harness (internal/difftest; the engine is the oracle, any
#      divergence is a runtime bug by definition);
#   2. liveness — a 4-node real-mode cluster under seeded 30% per-attempt
#      loss, inbox reordering and an even/odd partition over beats
#      [6,12) that then heals must still converge within 80 beats: soak's
#      agreement gate wants 8 consecutive beats of honest clocks that
#      agree and increment by one mod k, beside its beat-rate gates.
#      First over in-process channels, then over real loopback UDP
#      sockets.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== differential: lockstep cluster replays the engine (adversaries x faults) =="
go test -race -count=1 -run 'TestDifferential//^lockstep-' ./internal/difftest/

echo "== chaos: 4-node in-process cluster, 30% loss + reorder + partition/heal =="
go run -race ./cmd/soak -n 4 -schedule 0:loss30+partition+reorder -latency 2ms \
  -beats 80 -beat-timeout 250ms -seed 2026 -duration 5m -quiet

echo "== chaos: the same storm over loopback UDP =="
go run -race ./cmd/soak -transport udp -n 4 -schedule 0:loss30+partition+reorder \
  -latency 4ms -beats 80 -beat-timeout 250ms -seed 31337 -duration 5m -quiet

echo "chaos smoke OK"
