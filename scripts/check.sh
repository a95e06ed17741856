#!/usr/bin/env bash
# Builds and vets the whole tree INCLUDING bench/, then runs bench's own
# tests. bench/ is its own Go module importing internal/…, so the tier-1
# commands (go build ./... && go test ./...) never compile it, and an
# internal API change can break the benchmark unnoticed. Run this
# before committing anything that touches an internal package's
# exported names. No sockets, no wall-clock assertions; a few seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go vet -C bench ./...
go test -C bench ./...
