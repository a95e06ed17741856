// Package proto defines the synchronous protocol model shared by every
// algorithm in this repository: beats, messages, the Compose/Deliver
// protocol interface, and envelopes for protocol composition.
//
// The model follows Ben-Or, Dolev, Hoch (PODC 2008), Section 2: nodes are
// fully connected, a global beat system delivers simultaneous beats, and
// every message sent at beat r is received before beat r+1. One beat is
// executed as
//
//  1. every honest node calls Compose(beat) to produce this beat's
//     outgoing messages from its current state,
//  2. the adversary picks the faulty nodes' messages (rushing: it may first
//     inspect honest messages addressed to faulty nodes),
//  3. every honest node calls Deliver(beat, inbox) with all messages sent
//     this beat and updates its state.
package proto

import (
	"math/rand"

	"ssbyzclock/internal/field"
	"ssbyzclock/internal/pool"
)

// Broadcast is the destination value meaning "send to every node,
// including the sender itself". The paper's "broadcast" is shorthand for
// sending the message to all nodes over point-to-point links (no broadcast
// channel is assumed), so a Byzantine sender may equivocate; the engine
// expands honest broadcasts into identical point-to-point copies.
const Broadcast = -1

// Message is the marker interface implemented by every concrete protocol
// message. Concrete types live next to the protocol that owns them.
//
// Message lifetime contract: a Message (and everything reachable from it
// — slices, nested envelopes) is valid only for the beat in which it was
// sent. Senders may recycle a message's backing memory — and the message
// value itself, for pointer-form messages — as soon as the beat's
// Deliver phase has completed; the simulation engine pools the big
// compose payloads on exactly this schedule (package pool). Any
// component that keeps a message across beats — recording adversaries,
// tracing tools — must capture a deep copy via Clone, never the
// reference. Within the beat, a delivered message may be shared between
// several nodes' concurrent Deliver calls, so received contents are
// immutable: never write into a delivered message.
type Message interface {
	// Kind returns a short stable name used for tracing and wire encoding.
	Kind() string
}

// Send is an outgoing message produced by Compose.
type Send struct {
	// To is a node index in [0, n), or Broadcast.
	To  int
	Msg Message
}

// Recv is an incoming message handed to Deliver. From is authenticated by
// the network (Definition 2.2: sender identity is not tampered with).
type Recv struct {
	From int
	Msg  Message
}

// Protocol is a per-node synchronous state machine driven by beats.
//
// Implementations must tolerate arbitrary inbox contents (Byzantine
// senders) and, for self-stabilizing protocols, arbitrary internal state
// (see Scrambler).
//
// Cross-goroutine contract: drivers (the parallel lockstep engine, the
// networked runtime's per-node loops) may call Compose on all nodes
// concurrently, and likewise Deliver, with a barrier between the two
// phases; a single node's calls are never concurrent with each other. A
// Message delivered to several nodes is shared between their concurrent
// Deliver calls, so implementations must treat received Message contents
// as immutable — never write into a delivered message's slices — and
// must not mutate any state shared across nodes from Compose or Deliver.
type Protocol interface {
	// Compose returns the messages this node sends at the given beat.
	// It must not mutate state observable by Deliver ordering: the engine
	// always calls Compose before Deliver within one beat.
	Compose(beat uint64) []Send
	// Deliver processes every message sent at this beat and updates state.
	// The inbox slice is only valid for the duration of the call — the
	// engine reuses its backing array across beats — and the Message
	// values themselves are only valid for the beat (see Message's
	// lifetime contract: payloads may be pooled and recycled after the
	// Deliver phase). Implementations must copy out anything they keep —
	// protocol state is copied field by field, whole messages via Clone —
	// and must treat received contents as immutable (see Protocol's
	// cross-goroutine contract).
	Deliver(beat uint64, inbox []Recv)
}

// Scrambler is implemented by self-stabilizing protocols so tests and the
// fault injector can overwrite their entire state with arbitrary values,
// modelling the paper's transient faults. Implementations must scramble
// recursively into sub-protocols and must include out-of-range values.
type Scrambler interface {
	Scramble(rng *rand.Rand)
}

// ClockReader is implemented by the digital clock protocols. Value is the
// node's current clock; ok is false while the node holds the undefined
// value ("⊥" in the paper). Modulus is k, the wrap-around value.
type ClockReader interface {
	Clock() (value uint64, ok bool)
	Modulus() uint64
}

// BitReader is implemented by coin pipelines: Bit returns the random bit
// output at the most recent beat.
type BitReader interface {
	Bit() byte
}

// Env carries per-node construction parameters shared by all protocols.
type Env struct {
	// N is the number of nodes; F the Byzantine bound, F < N/3 for the
	// paper's protocols. ID is this node's index in [0, N).
	N, F, ID int
	// Rng is this node's private randomness source. The engine seeds each
	// node deterministically from the run seed so simulations replay.
	Rng *rand.Rand
	// Pool is this node's beat-scoped payload pool, owned and recycled by
	// the driver (the simulation engine) after each beat's Deliver phase.
	// Compose paths route their big payload allocations through it; nil
	// selects fresh allocations (the SSBYZ_POOL=off path, and drivers
	// that do not pool).
	Pool *pool.Node
	// Batch, when non-nil, defers this node's grid evaluations: compose
	// paths enqueue their EvalGridT calls on it instead of evaluating
	// inline, and the driver flushes after the compose fan-out so jobs
	// from many nodes — in the multi-tenant engine, many tenants —
	// stack into deep kernel passes. The values are bit-identical either
	// way (see field.EvalBatch); nil selects immediate evaluation.
	Batch *field.EvalBatch
}

// Quorum returns n-f, the size of the quorum used throughout the paper.
func (e Env) Quorum() int { return e.N - e.F }

// Valid reports whether the environment is well formed.
func (e Env) Valid() bool {
	return e.N > 0 && e.F >= 0 && e.ID >= 0 && e.ID < e.N && e.Rng != nil
}
