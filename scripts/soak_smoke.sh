#!/usr/bin/env bash
# CI smoke for the observability subsystem (internal/obs) and the soak
# harness (cmd/soak).
#
# Three gates, all under the race detector:
#
#   1. unit — the obs registry/exporter suite (sharded-histogram merge
#      equivalence, golden exposition, nil-registry no-op) and the
#      faultnet concurrent-senders counter test;
#   2. differential — instrumented engine runs must replay the
#      nil-registry reference byte for byte (the zero-footprint
#      invariant, adversary suite x sizes x workers);
#   3. soak — a ~45s miniature soak over loopback UDP: healthy start,
#      live 30% per-attempt loss toggled in mid-run, then healed, with
#      the metrics-derived liveness assertions (no stall, overall and
#      post-heal beat rate) gating the exit status, and /metrics
#      serving valid Prometheus exposition while it runs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== obs unit suite + faultnet concurrent senders (-race) =="
go test -race -count=1 ./internal/obs/
go test -race -count=1 -run 'TestConcurrentSendersCounters' ./internal/faultnet/

echo "== differential: instrumented == nil-registry, bit for bit =="
go test -race -count=1 -run 'TestDifferential//-registry$' ./internal/difftest/

echo "== soak: udp loopback, loss30 toggled live, metrics-gated liveness =="
METRICS_ADDR="127.0.0.1:19763"
go run -race ./cmd/soak -transport udp -n 4 -duration 45s \
  -schedule "0:none,12s:loss30,27s:none" -beat-timeout 100ms \
  -stall 10s -min-rate 1 -seed 2026 \
  -metrics-addr "$METRICS_ADDR" -quiet &
SOAK_PID=$!

# While the soak runs, the exporter must serve well-formed Prometheus
# text: every sample line is "name{labels} value", HELP/TYPE comments
# only otherwise, and the runtime series are present.
sleep 8
SCRAPE="$(curl -sf "http://$METRICS_ADDR/metrics")"
echo "$SCRAPE" | awk '
  /^#/ { if ($2 != "HELP" && $2 != "TYPE") { print "bad comment: " $0; exit 1 }; next }
  NF < 2 { print "bad sample: " $0; exit 1 }
  { if ($NF + 0 != $NF) { print "bad value: " $0; exit 1 } }
'
echo "$SCRAPE" | grep -q '^ssbyz_node_beats_total{node="0"} [0-9]' \
  || { echo "missing node beat series" >&2; kill "$SOAK_PID"; exit 1; }
echo "$SCRAPE" | grep -q '^ssbyz_faultnet_attempt_lost_total' \
  || { echo "missing faultnet series" >&2; kill "$SOAK_PID"; exit 1; }
curl -sf -o /dev/null "http://$METRICS_ADDR/healthz" \
  || { echo "healthz not green" >&2; kill "$SOAK_PID"; exit 1; }
echo "scrape OK ($(echo "$SCRAPE" | grep -c '^ssbyz_') series)"

wait "$SOAK_PID"

echo "soak smoke OK"
