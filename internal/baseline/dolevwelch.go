// Package baseline implements the prior-work rows of the paper's Table 1,
// for the E1 comparison experiment:
//
//   - DolevWelch: a probabilistic synchronous digital clock sync in the
//     style of Dolev & Welch [10]/[9], whose convergence time grows
//     exponentially in n-f because all honest nodes must *locally* guess
//     the same value in one beat.
//   - PhaseKing: a deterministic protocol with O(f) convergence and
//     f < n/3 resiliency, standing in for the deterministic linear
//     protocols [15]/[7]. Substitution note: those papers
//     synchronize the phase/king rotation internally, which is their main
//     technical difficulty; this implementation derives the rotation from
//     the global beat number supplied by the engine — a strictly stronger
//     model assumption that preserves the property Table 1 reports, O(f)
//     worst-case convergence as adversarial kings are rotated past.
//   - Naive: a max-adoption strawman with no Byzantine tolerance, used in
//     examples and ablations.
package baseline

import (
	"math/rand"

	"ssbyzclock/internal/proto"
)

// ClockMsg is the per-beat clock broadcast shared by the baselines.
type ClockMsg struct {
	V uint64
}

// Kind implements proto.Message.
func (ClockMsg) Kind() string { return "baseline.clock" }

// DolevWelch is the probabilistic baseline: each beat, broadcast the
// clock; on an n-f quorum for v adopt v+1, otherwise guess uniformly at
// random. All honest nodes guessing the same value simultaneously takes
// expected k^(n-f-1) beats — the exponential row of Table 1.
type DolevWelch struct {
	env   proto.Env
	k     uint64
	clock uint64
}

var (
	_ proto.Protocol    = (*DolevWelch)(nil)
	_ proto.ClockReader = (*DolevWelch)(nil)
	_ proto.Scrambler   = (*DolevWelch)(nil)
)

// NewDolevWelch constructs the probabilistic baseline for modulus k.
func NewDolevWelch(env proto.Env, k uint64) *DolevWelch {
	if k == 0 {
		k = 1
	}
	return &DolevWelch{env: env, k: k}
}

// Compose implements proto.Protocol.
func (d *DolevWelch) Compose(uint64) []proto.Send {
	return []proto.Send{{To: proto.Broadcast, Msg: ClockMsg{V: d.clock % d.k}}}
}

// Deliver implements proto.Protocol.
func (d *DolevWelch) Deliver(_ uint64, inbox []proto.Recv) {
	counts := make(map[uint64]int)
	seen := make([]bool, d.env.N)
	for _, r := range inbox {
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
	d.clock = uint64(d.env.Rng.Int63n(int64(d.k)))
}

// Clock implements proto.ClockReader.
func (d *DolevWelch) Clock() (uint64, bool) { return d.clock % d.k, true }

// Modulus implements proto.ClockReader.
func (d *DolevWelch) Modulus() uint64 { return d.k }

// Scramble implements proto.Scrambler.
func (d *DolevWelch) Scramble(rng *rand.Rand) { d.clock = rng.Uint64() }

// NewDolevWelchProtocol adapts NewDolevWelch to a sim.NodeFactory.
func NewDolevWelchProtocol(k uint64) func(proto.Env) proto.Protocol {
	return func(env proto.Env) proto.Protocol { return NewDolevWelch(env, k) }
}
