// Package adversary implements the Byzantine adversary of the paper's
// model (Section 2): an information-theoretic, rushing adversary with
// private channels controlling up to f nodes. It observes every message
// addressed to a faulty node (but none of the honest-to-honest traffic),
// chooses the faulty nodes' messages after seeing the honest ones
// ("rushing"), may equivocate (different message to each recipient), but
// cannot forge sender identities (Definition 2.2).
//
// The engine (package sim) composes each faulty node's *honest* messages
// from a real protocol instance and hands them to the adversary, which
// may forward, mutate, replace or drop them. This lets attack strategies
// deviate surgically — e.g. equivocating only GVSS votes — while
// otherwise participating in the protocol, which is far more damaging
// than pure noise. The equivocation primitive is PerRecipient: its
// callback answers Forward for copies it leaves alone, which then go out
// as the original send (a broadcast stays a broadcast), and only
// rewritten copies are wrapped, from one envelope slab per call. Paths are
// comparable values, so Unwrap allocates nothing.
//
// Message-lifetime contract: everything an adversary sees — composed
// sends and intercepted honest traffic alike — is valid only for the
// current beat. Payload memory is pooled by the engine and recycled once
// the beat's Deliver phase completes, so an adversary that records
// messages across beats (Replayer) must keep deep copies obtained via
// proto.Clone; within-beat forwarding and rewriting needs no copies.
// Oracle-equipped attacks read protocol *state*, not retained messages:
// the Bit-oracle variants consult a faulty node's own honest-copy
// instance (Context.FaultyNode), which models the paper's §6.1
// concession — the adversary sees the coin's output in the beat it is
// produced — without reaching outside the adversary's legal view.
package adversary

import (
	"math/rand"

	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
)

// Context is the adversary's knowledge of the system: fixed constants
// plus its own randomness source.
type Context struct {
	N, F   int
	Faulty []int
	Rng    *rand.Rand
	// FaultyNode returns the honest-copy protocol instance of an
	// adversary-controlled node, or nil for honest ids (private channels:
	// the adversary may inspect only its own nodes' state). The engine
	// installs it; it lets self-contained oracle attacks (BitOracle*)
	// read the public coin bit from a node they legitimately control
	// instead of closing over a live engine.
	FaultyNode func(id int) proto.Protocol
	// Pool is the beat-scoped pool an attack leases its output from:
	// PerRecipient's send lists and envelopes, and the per-faulty-node
	// Sends list. Executors set the pool they lease the intercept set
	// from and recycle after the beat's last reader (sim: the first
	// faulty node's; noderuntime's adversary host: likewise). Nil
	// allocates fresh memory.
	Pool *pool.Node
	// Expand selects PerRecipient's reference shape: every copy its own
	// freshly wrapped unicast, Forward or not. Executors leave it false;
	// the differential harness's expand cells set it, so what receivers
	// see of the forwarding shape is held to a shape that never forwards.
	Expand bool
}

// IsFaulty reports whether id is adversary-controlled.
func (c *Context) IsFaulty(id int) bool {
	for _, f := range c.Faulty {
		if f == id {
			return true
		}
	}
	return false
}

// Sends is one faulty node's outgoing messages for a beat.
type Sends struct {
	From int
	Out  []proto.Send
}

// Intercept is an honest message visible to the adversary: one addressed
// to a faulty node (broadcasts included, since a broadcast reaches the
// faulty nodes too).
type Intercept struct {
	From, To int
	Msg      proto.Message
}

// interceptKind leases the beat's intercept sets; a poisoned intercept
// carries no message.
var interceptKind = pool.NewKind(Intercept{})

// sendsKind leases the attacks' per-faulty-node output lists; a
// poisoned entry carries no sends.
var sendsKind = pool.NewKind(Sends{})

// outSends returns an empty output list with room for n faulty nodes'
// sends, leased from ctx's pool.
func outSends(ctx *Context, n int) []Sends { return pool.Lease(ctx.Pool, sendsKind, n)[:0] }

// Intercepts returns a leased intercept set of length n with arbitrary
// contents, valid until p's next Recycle; the caller overwrites every
// entry.
func Intercepts(p *pool.Node, n int) []Intercept { return pool.Lease(p, interceptKind, n) }

// Adversary chooses the faulty nodes' messages each beat.
//
// composed holds the messages the faulty nodes would send if they
// followed the protocol (one entry per faulty node, in Context.Faulty
// order); visible is the rushing adversary's view of this beat's honest
// traffic. The returned sends are delivered as coming from the respective
// faulty nodes; sends claiming a non-faulty From are discarded by the
// engine (identity cannot be forged).
//
// The composed and visible slices — and the Message values inside them —
// are only valid for the duration of the beat: the engine reuses the
// slices' backing arrays across beats, and message payloads come from
// per-beat pools that are recycled (and, in tests, poison-scribbled)
// after the beat's Deliver phase (see proto.Message's lifetime
// contract). Forwarding, rewriting or dropping messages within the call
// is free; an adversary that records traffic across beats (e.g.
// Replayer) must capture deep copies via proto.Clone, never the
// references. Adversaries always run sequentially on the engine's
// goroutine, but the Messages they emit (or forward) may be delivered to
// several nodes concurrently afterwards, so an adversary must never
// mutate a Message it has already sent or observed — build fresh
// messages instead (see proto.Protocol's cross-goroutine contract).
type Adversary interface {
	Act(beat uint64, composed []Sends, visible []Intercept) []Sends
}

// Passive forwards the faulty nodes' honest messages untouched: the
// faulty nodes follow the protocol. Useful as a control.
type Passive struct{}

// Act implements Adversary.
func (Passive) Act(_ uint64, composed []Sends, _ []Intercept) []Sends { return composed }

// Silent drops all faulty output: a crash-fault adversary.
type Silent struct{}

// Act implements Adversary.
func (Silent) Act(uint64, []Sends, []Intercept) []Sends { return nil }

// Delayer forwards honest behaviour but randomly withholds each message
// with probability Drop — an omission-fault adversary.
type Delayer struct {
	Ctx  *Context
	Drop float64
}

// Act implements Adversary.
func (a *Delayer) Act(_ uint64, composed []Sends, _ []Intercept) []Sends {
	out := outSends(a.Ctx, len(composed))
	for _, s := range composed {
		kept := Sends{From: s.From}
		for _, m := range s.Out {
			if a.Ctx.Rng.Float64() >= a.Drop {
				kept.Out = append(kept.Out, m)
			}
		}
		out = append(out, kept)
	}
	return out
}

// Replayer records every visible honest message and, each beat, replays a
// random sample back into the network alongside the honest faulty output
// — stale-state noise resembling the "phantom messages" of Definition 2.2
// (sent by live nodes, so legal, but semantically stale). It is the
// suite's recording adversary: everything it keeps across beats is a
// deep copy (proto.Clone), because the observed messages' payloads are
// recycled by the engine when the beat ends.
type Replayer struct {
	Ctx    *Context
	memory []proto.Message
}

// Act implements Adversary.
func (a *Replayer) Act(_ uint64, composed []Sends, visible []Intercept) []Sends {
	for _, v := range visible {
		msg := v.Msg
		if c, err := proto.Clone(msg); err == nil {
			msg = c
		}
		// An unclonable message has an unregistered type: a test double,
		// never a pooled payload, so retaining the original is safe.
		a.memory = append(a.memory, msg)
		if len(a.memory) > 4096 {
			a.memory = a.memory[len(a.memory)-4096:]
		}
	}
	out := append([]Sends(nil), composed...)
	if len(a.memory) == 0 {
		return out
	}
	for i := range out {
		for k := 0; k < a.Ctx.N; k++ {
			if a.Ctx.Rng.Intn(2) == 0 {
				continue
			}
			msg := a.memory[a.Ctx.Rng.Intn(len(a.memory))]
			out[i].Out = append(out[i].Out, proto.Send{To: a.Ctx.Rng.Intn(a.Ctx.N), Msg: msg})
		}
	}
	return out
}
