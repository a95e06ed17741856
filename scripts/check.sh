#!/usr/bin/env bash
# Builds and vets the whole tree INCLUDING bench/, then runs bench's own
# tests. bench/ is its own Go module importing internal/…, so the tier-1
# commands (go build ./... && go test ./...) never compile it, and an
# internal API change can break the benchmark unnoticed. Run this
# before committing anything that touches an internal package's
# exported names. No sockets, no wall-clock assertions; a few seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

# One cluster, one node loop, two executors (engine = oracle, event loop
# = deployment): the forks retired in PR 14 must not quietly grow back.
if grep -rnE 'internal/runtime"|Multi(Cluster|Node|AdvHost)' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then
  echo "check: internal/runtime or a Multi(Cluster|Node|AdvHost) identifier is back in non-test Go" >&2
  exit 1
fi

# One eval kernel per platform, no implementation switches, one benchmark:
# the only SSBYZ_ variable non-test Go may read is the protocol-layout
# selector, and the retired JSON bench gate must not come back.
if grep -rnoE 'SSBYZ_[A-Z0-9_]+' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . | grep -v ':SSBYZ_COIN_LAYOUT$' || [ -e cmd/benchjson ] || [ -e BENCH_beat.json ]; then
  echo "check: an SSBYZ_ switch other than SSBYZ_COIN_LAYOUT, cmd/benchjson or BENCH_beat.json is back" >&2
  exit 1
fi

# The networked runtime decodes into its beat arena (a wire.Decoder, reset
# once per beat), not into fresh memory per message.
if grep -rn 'wire\.Decode(' --include='*.go' --exclude='*_test.go' internal/noderuntime; then
  echo "check: non-test internal/noderuntime calls wire.Decode( — decode through the node's wire.Decoder" >&2
  exit 1
fi

go build ./...
go vet ./...
go vet -C bench ./...
go test -C bench ./...
