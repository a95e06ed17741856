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

# One eval kernel per platform, no implementation or layout switches, one
# benchmark: non-test Go reads no SSBYZ_ variable (the coin layout is an
# argument, and an axis of the differential harness), and the retired
# JSON bench gate must not come back.
if grep -rnoE 'SSBYZ_[A-Z0-9_]+' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . || [ -e cmd/benchjson ] || [ -e BENCH_beat.json ]; then
  echo "check: an SSBYZ_ switch in non-test Go, cmd/benchjson or BENCH_beat.json is back" >&2
  exit 1
fi

# One differential harness: the adversary suite, the trace type and the
# per-executor trace runners live in internal/difftest, so no other test
# file declares its own.
if grep -rnE '^\s*(type advCase|func adversarySuite|var adversarySuite)\b|^func (run[A-Za-z]*Trace|[a-zA-Z]*Trajectory)\(|^type [a-zA-Z]*[tT]race struct' --include='*_test.go' --exclude-dir=.bench_build . | grep -v '^\./internal/difftest/'; then
  echo "check: a test outside internal/difftest declares its own adversarySuite, advCase, trace type or trace runner — add a row to the harness's table instead" >&2
  exit 1
fi

# The networked runtime decodes into leases from the node's pool (a
# wire.Decoder over it, ended by the pool's one Recycle per beat), not
# into fresh memory per message.
if grep -rn 'wire\.Decode(' --include='*.go' --exclude='*_test.go' internal/noderuntime; then
  echo "check: non-test internal/noderuntime calls wire.Decode( — decode through the node's wire.Decoder" >&2
  exit 1
fi

# One beat lifetime, one mechanism: beat-scoped memory in the protocol,
# codec and executor packages is a lease from the node's pool, ended by
# its one Recycle per beat — no process-wide sync.Pool, no private slab.
# gvss keeps exactly two process-wide pools, each for a reason its
# comment gives: dealtSlabPool (a dealt slab crosses a Recycle) and
# scratchPool (per-call scratch with a cached decoder).
if grep -rnE 'sync\.Pool|slab\[' --include='*.go' --exclude='*_test.go' internal/proto internal/core internal/sscoin internal/coin internal/wire internal/sim internal/multi internal/pool internal/noderuntime \
  || grep -rn 'sync\.Pool' --include='*.go' --exclude='*_test.go' internal/gvss | grep -vE ':var (dealtSlabPool|scratchPool) sync\.Pool$'; then
  echo "check: a sync.Pool or a slab[ in non-test internal/proto, core, sscoin, coin, wire, sim, multi, pool or noderuntime, or a sync.Pool in gvss other than dealtSlabPool and scratchPool — lease from the node's pool instead" >&2
  exit 1
fi

# One fan-out mechanism: the engines' parallel phases run on the
# process-wide crew in sim/scheduler.go (persistent workers, nothing
# allocated per fan-out), so no other non-test code in internal/sim or
# internal/multi starts a goroutine or waits on a sync.WaitGroup.
if grep -rnE '^\s*go\s+(func\b|[A-Za-z_][A-Za-z0-9_.]*\()|sync\.WaitGroup' --include='*.go' --exclude='*_test.go' --exclude=scheduler.go internal/sim internal/multi; then
  echo "check: a go statement or a sync.WaitGroup in non-test internal/sim or internal/multi outside scheduler.go — fan out through sim.Scheduler" >&2
  exit 1
fi

# One allocator: the element, bool and row-header payload blocks are the
# three kinds package pool registers (Node.Elems, Bools, Polys); no other
# package registers a kind of those types.
if grep -rnE 'NewKind(\[(field\.Elem|bool|field\.Poly)\]|\((pool\.)?PoisonElem\)|\((true|false)\)|\(field\.(Elem|Poly)\()' --include='*.go' --exclude-dir=.bench_build . | grep -v '^\./internal/pool/'; then
  echo "check: a package other than pool registers a kind for field.Elem, bool or field.Poly — use pool.Node.Elems, Bools or Polys" >&2
  exit 1
fi

# Every shipped transport names the sender of what it delivers (UDP by
# source address), and the node runtime trusts no frame header's id
# alone: no transport may hand out an anonymous packet.
if grep -rnE 'Packet\{From: *-1' --include='*.go' --exclude='*_test.go' internal/net; then
  echo "check: non-test internal/net builds a Packet{From: -1 — every transport must authenticate the sender" >&2
  exit 1
fi

# One message representation: the bulk protocol messages and the
# proposal travel in pointer form only, every GVSS matrix is one flat
# slice, and nothing gathers row views back into flat form.
if grep -rnE 'case ([^:]*[ ,])?(gvss\.|coin\.|core\.)?(ShareMsg|EchoMsg|VoteMsg|RecoverMsg|AcceptMsg|ProposeMsg)[,:]' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . \
  || grep -rnE '(ElemRows|BoolRows)\(' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . \
  || grep -rnE 'func \([^)]*\) gather\(' --include='*.go' --exclude='*_test.go' internal/gvss; then
  echo "check: a value-form case for a pointer-only message, ElemRows(/BoolRows(, or a gvss gather( method is back in non-test Go" >&2
  exit 1
fi

# Beat-scoped means pool-scoped: GVSS and coin message structs are beat
# leases from the node's pool (pool.Lease), so no struct in non-test
# internal/gvss or internal/coin keeps a message slot.
if grep -rnE '^\s+[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*\s+(\[\](gvss\.)?(ShareMsg|EchoMsg)|(gvss\.)?(VoteMsg|RecoverMsg)|AcceptMsg)\s*(//.*)?$' --include='*.go' --exclude='*_test.go' internal/gvss internal/coin; then
  echo "check: a struct in non-test internal/gvss or internal/coin keeps a message slot ([]ShareMsg, []EchoMsg, VoteMsg, RecoverMsg or AcceptMsg) — lease it from the pool" >&2
  exit 1
fi

# Say each name once: adversary, coin and protocol names resolve through
# their one table each (adversary.Registry, coin.Factories,
# sweep.Protocols), so no non-test Go outside bench/ switches on one.
names='passive|silent|splitter|gradesplitter|sharecorruptor|recovercorruptor|delayer|replayer|stacked|bitoraclesplitter|bitoraclephase3|bitoraclestacked|fm|rabin|local|clocksync|clocksyncstale|twoclock|fourclock|dolevwelch|phaseking|naive'
if grep -rnE "case [^:]*\"($names)\"" --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=bench .; then
  echo "check: a case on an adversary, coin or protocol name in non-test Go — look it up in adversary.Registry, coin.Factories or sweep.Protocols" >&2
  exit 1
fi

# Every Go file outside the benchmark's build directory is gofmt-clean.
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
  echo "check: not gofmt-clean:" >&2
  echo "$unformatted" >&2
  exit 1
fi

go build ./...
go vet ./...
go vet -C bench ./...
go test -C bench ./...
