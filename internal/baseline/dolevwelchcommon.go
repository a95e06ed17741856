package baseline

import (
	"math/bits"
	"math/rand"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sscoin"
)

// Envelope child tags of DolevWelchCommon.
const (
	dwcChildMsg  = 0
	dwcChildCoin = 1
	dwcChildren  = 2
)

// DolevWelchCommon is the adaptation the paper sketches in Section 6.1:
// Dolev–Welch [9] with its local random guesses replaced by the
// self-stabilizing common coin (ss-Byz-Coin-Flip). Each beat the pipeline
// emits one common bit; a node that fails to see a quorum guesses the
// value assembled from the last ceil(log2 k) bits, so all guessing nodes
// pick the *same* value whenever the recent coin flips were common.
//
// The paper's observation holds empirically (experiment E12 inside the
// E9 table): the exponential k^(n-f-1) term collapses — guesses are
// coordinated — but convergence still grows with the wraparound value k
// (the bit window must be common and land on the kept values), so the
// result is an exponential improvement over DolevWelch yet not the
// constant time of ss-Byz-Clock-Sync.
type DolevWelchCommon struct {
	env   proto.Env
	k     uint64
	bits  int
	pipe  *sscoin.Pipeline
	buf   uint64 // sliding window of common bits
	clock uint64
}

var (
	_ proto.Protocol    = (*DolevWelchCommon)(nil)
	_ proto.ClockReader = (*DolevWelchCommon)(nil)
	_ proto.Scrambler   = (*DolevWelchCommon)(nil)
)

// NewDolevWelchCommon constructs the adapted baseline for modulus k over
// the given coin factory.
func NewDolevWelchCommon(env proto.Env, k uint64, factory coin.Factory) *DolevWelchCommon {
	if k == 0 {
		k = 1
	}
	nbits := bits.Len64(k - 1)
	if nbits == 0 {
		nbits = 1
	}
	return &DolevWelchCommon{env: env, k: k, bits: nbits, pipe: sscoin.New(env, factory)}
}

// Compose implements proto.Protocol.
func (d *DolevWelchCommon) Compose(beat uint64) []proto.Send {
	pl := d.env.Pool
	out := proto.Append(pl, nil, proto.Box(pl, dwcChildMsg, proto.Broadcast, ClockMsg{V: d.clock % d.k}))
	return proto.Wrap(pl, dwcChildCoin, d.pipe.Compose(beat), out)
}

// Deliver implements proto.Protocol.
func (d *DolevWelchCommon) Deliver(beat uint64, inbox []proto.Recv) {
	boxes := proto.Split(d.env.Pool, inbox, dwcChildren)
	d.pipe.Deliver(beat, boxes[dwcChildCoin])
	d.buf = d.buf<<1 | uint64(d.pipe.Bit()&1)

	counts := make(map[uint64]int)
	seen := make([]bool, d.env.N)
	for _, r := range boxes[dwcChildMsg] {
		m, ok := r.Msg.(ClockMsg)
		if !ok || r.From < 0 || r.From >= d.env.N || seen[r.From] || m.V >= d.k {
			continue
		}
		seen[r.From] = true
		counts[m.V]++
	}
	for v, c := range counts {
		if c >= d.env.Quorum() {
			d.clock = (v + 1) % d.k
			return
		}
	}
	// No quorum: guess the common window value instead of a local coin.
	d.clock = (d.buf & (1<<d.bits - 1)) % d.k
}

// Clock implements proto.ClockReader.
func (d *DolevWelchCommon) Clock() (uint64, bool) { return d.clock % d.k, true }

// Modulus implements proto.ClockReader.
func (d *DolevWelchCommon) Modulus() uint64 { return d.k }

// Scramble implements proto.Scrambler.
func (d *DolevWelchCommon) Scramble(rng *rand.Rand) {
	d.clock = rng.Uint64()
	d.buf = rng.Uint64()
	d.pipe.Scramble(rng)
}

// NewDolevWelchCommonProtocol adapts NewDolevWelchCommon to a
// sim.NodeFactory.
func NewDolevWelchCommonProtocol(k uint64, factory coin.Factory) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol { return NewDolevWelchCommon(env, k, factory) }
}
