package proto

import "ssbyzclock/internal/pool"

// Env wrapping for protocol composition: a parent protocol that embeds
// child protocols (e.g. ss-Byz-4-Clock embeds two ss-Byz-2-Clock
// instances, each of which embeds a coin pipeline) wraps each child's
// messages in an Envelope tagged with the child's index, and routes
// delivered envelopes back to the matching child. Tags are small constants
// fixed in the code, so routing is self-stabilizing: no routing state can
// be corrupted by a transient fault.
//
// Envelopes, send lists and split inboxes live one beat, like the
// messages they carry, so Wrap, Box, Append and Split lease them from
// the node's pool (Env.Pool; fresh memory when nil): the node's one
// Recycle per beat ends them with everything else.

// SharedCoinChild is the reserved envelope child tag under which a clock
// stack's root protocol carries the shared ss-Byz-Coin-Flip pipeline's
// traffic (Remark 4.1's layout; see coin.SharedPipeline). The value is a
// fixed constant above every root protocol's own child tags (ClockSync
// uses 0-2, FourClock/PowerClock 0-1, TwoClock 0-1), so the same tag
// works at any stack root, and — like all child tags — it is code, not
// state: a transient fault cannot corrupt the routing. Sub-protocols
// never use the tag; their splitters drop it as out of range, exactly
// like any other foreign traffic.
const SharedCoinChild uint8 = 3

// Envelope wraps a child protocol's message with the child's index within
// its parent. Byzantine senders may use arbitrary child indices; routers
// must drop unknown ones.
type Envelope struct {
	Child uint8
	Inner Message
}

// Kind implements Message.
func (e Envelope) Kind() string { return "env" }

// AsEnvelope reports whether m is an envelope, accepting both the value
// form (hand-built in tests and by adversaries) and the pointer form
// (produced by Wrap, Box and the pooled decoder, which lease the boxes
// instead of allocating one heap copy per message). All envelope
// consumers must go through this helper.
func AsEnvelope(m Message) (Envelope, bool) {
	switch v := m.(type) {
	case Envelope:
		return v, true
	case *Envelope:
		return *v, true
	}
	return Envelope{}, false
}

// BeatEnder was the per-beat release hook through which protocols
// parked per-beat backing in process-wide pools. Nothing in the program
// implements or calls it any more — every beat-scoped buffer is a lease
// from the node's pool, ended by its Recycle — and the type stays only
// because the benchmark's tracing shim still names it.
type BeatEnder interface{ EndBeat() }

// Leased kinds. A poisoned envelope carries a child tag no router knows
// and no inner message, so a kept one routes nowhere; a poisoned send or
// inbox entry carries no message.
var (
	envelopeKind = pool.NewKind(Envelope{Child: ^uint8(0)})
	sendKind     = pool.NewKind(Send{})
	recvKind     = pool.NewKind(Recv{})
	inboxesKind  = pool.NewKind[[]Recv](nil)
	countKind    = pool.NewKind(0)
)

// NewEnvelope returns a leased envelope box holding inner under child.
func NewEnvelope(p *pool.Node, child uint8, inner Message) *Envelope {
	e := &pool.Lease(p, envelopeKind, 1)[0]
	*e = Envelope{Child: child, Inner: inner}
	return e
}

// Envelopes returns a leased slab of n envelope boxes with arbitrary
// contents; the caller overwrites every box it exposes.
func Envelopes(p *pool.Node, n int) []Envelope { return pool.Lease(p, envelopeKind, n) }

// Sends returns a leased send list of length n with arbitrary contents;
// the caller overwrites every entry.
func Sends(p *pool.Node, n int) []Send { return pool.Lease(p, sendKind, n) }

// Recvs returns a leased inbox of length n with arbitrary contents; the
// caller overwrites every entry it exposes.
func Recvs(p *pool.Node, n int) []Recv { return pool.Lease(p, recvKind, n) }

// grow returns dst with room for k more sends, moving it to a larger
// lease (at least twice its capacity) when it has none.
func grow(p *pool.Node, dst []Send, k int) []Send {
	if cap(dst)-len(dst) >= k {
		return dst
	}
	out := Sends(p, max(len(dst)+k, 2*cap(dst)))[:len(dst)]
	copy(out, dst)
	return out
}

// Append appends sends to dst, growing it by a lease from p.
func Append(p *pool.Node, dst []Send, sends ...Send) []Send {
	return append(grow(p, dst, len(sends)), sends...)
}

// Wrap appends sends to dst with each message wrapped under child, in
// envelopes leased from p.
func Wrap(p *pool.Node, child uint8, sends []Send, dst []Send) []Send {
	if len(sends) == 0 {
		return dst
	}
	dst = grow(p, dst, len(sends))
	envs := pool.Lease(p, envelopeKind, len(sends))
	for i, s := range sends {
		envs[i] = Envelope{Child: child, Inner: s.Msg}
		dst = append(dst, Send{To: s.To, Msg: &envs[i]})
	}
	return dst
}

// Box returns a single send wrapping m under child.
func Box(p *pool.Node, child uint8, to int, m Message) Send {
	return Send{To: to, Msg: NewEnvelope(p, child, m)}
}

// Split routes enveloped messages into per-child inboxes covering
// children [0, numChildren), leased from p. Messages that are not
// envelopes or carry an out-of-range child tag are dropped: only
// Byzantine nodes produce them, and dropping is the safe
// interpretation.
//
// A counting pass sizes one flat lease, and the routing pass partitions
// it into per-child windows (full-capacity slices, so a child's inbox
// cannot grow into its neighbor's).
func Split(p *pool.Node, inbox []Recv, numChildren int) [][]Recv {
	out := pool.Lease(p, inboxesKind, numChildren)
	counts := pool.Lease(p, countKind, numChildren)
	clear(counts)
	total := 0
	for _, r := range inbox {
		if env, ok := AsEnvelope(r.Msg); ok && int(env.Child) < numChildren {
			counts[env.Child]++
			total++
		}
	}
	flat := Recvs(p, total)
	off := 0
	for c, cnt := range counts {
		out[c] = flat[off : off : off+cnt]
		off += cnt
	}
	for _, r := range inbox {
		if env, ok := AsEnvelope(r.Msg); ok && int(env.Child) < numChildren {
			out[env.Child] = append(out[env.Child], Recv{From: r.From, Msg: env.Inner})
		}
	}
	return out
}
