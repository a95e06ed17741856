package adversary

import (
	"fmt"
	"slices"

	"ssbyzclock/internal/proto"
)

// Path identifies a protocol instance inside a nested protocol stack as
// the sequence of envelope child tags from the top-level protocol down to
// the leaf message. Two messages with equal paths belong to the same
// sub-protocol instance (e.g. the A1 two-clock inside a four-clock inside
// a clock-sync). A Path is a comparable value holding at most eight tags
// (the deepest real stack, the paper layout's, is four): Unwrap builds
// one without allocating and stops at the cap, returning the rest of the
// envelope chain as the leaf, so Wrap(Unwrap(m)) rebuilds m at any depth.
type Path struct {
	depth uint8
	tags  [8]uint8
}

// String renders the tags root first, e.g. "[3 0 7]".
func (p Path) String() string { return fmt.Sprint(p.tags[:p.depth]) }

// Forward is the leaf a PerRecipient or RewriteLeaves callback returns to
// pass a copy on unchanged: the original message, envelope chain and all.
// Its dynamic type is an unexported comparable empty struct, so
// nl == Forward cannot panic whatever nl holds. Never compare leaves by
// value: a leaf's dynamic type need not be comparable.
var Forward proto.Message = forward{}

type forward struct{}

func (forward) Kind() string { return "forward" }

// Unwrap peels the envelopes off a message, returning the leaf and its
// path.
func Unwrap(m proto.Message) (Path, proto.Message) {
	var p Path
	for int(p.depth) < len(p.tags) {
		env, ok := proto.AsEnvelope(m)
		if !ok {
			break
		}
		p.tags[p.depth] = env.Child
		p.depth++
		m = env.Inner
	}
	return p, m
}

// Wrap re-wraps a leaf message under the given path.
func Wrap(path Path, leaf proto.Message) proto.Message {
	m := leaf
	for i := int(path.depth) - 1; i >= 0; i-- {
		m = proto.Envelope{Child: path.tags[i], Inner: m}
	}
	return m
}

// RewriteLeaves maps fn over the leaf of every send, preserving wrapping
// and destinations. fn returning nil drops the send, Forward keeps it.
func RewriteLeaves(sends []proto.Send, fn func(path Path, leaf proto.Message) proto.Message) []proto.Send {
	out := make([]proto.Send, 0, len(sends))
	for _, s := range sends {
		path, leaf := Unwrap(s.Msg)
		if nl := fn(path, leaf); nl == Forward {
			out = append(out, s)
		} else if nl != nil {
			out = append(out, proto.Send{To: s.To, Msg: Wrap(path, nl)})
		}
	}
	return out
}

// recipients is the id range [lo, hi) a send to `to` reaches among n
// nodes; empty for an out-of-range unicast.
func recipients(n, to int) (lo, hi int) {
	switch {
	case to == proto.Broadcast:
		return 0, n
	case to < 0 || to >= n:
		return 0, 0
	}
	return to, to + 1
}

// PerRecipient is the equivocation primitive: fn picks a possibly
// different leaf for each recipient, among ctx.N nodes, of every send.
// fn is called exactly once per in-range recipient (all n of a
// broadcast), in send order and ascending recipient order, so an
// adversary's Rng stream does not depend on what fn answers;
// out-of-range unicasts are dropped without a call.
// Forward passes that copy on as the original message, nil drops it, and
// any other leaf is wrapped under the send's path. A send whose every
// copy is Forward comes back as itself — a broadcast stays one broadcast,
// which the engine and the networked adversary host deliver exactly
// where its n unicasts would land. Only rewritten copies are wrapped, as
// pointer-form envelopes from one []proto.Envelope slab per call; the
// slab and the output slice are leases from ctx.Pool, so a call on a
// warm pool allocates nothing.
// Under ctx.Expand every copy comes back as its own freshly wrapped
// unicast instead (see expandCopies).
func PerRecipient(ctx *Context, sends []proto.Send, fn func(to int, path Path, leaf proto.Message) proto.Message) []proto.Send {
	n := ctx.N
	if ctx.Expand {
		return expandCopies(n, sends, fn)
	}
	total := 0
	for _, s := range sends {
		lo, hi := recipients(n, s.To)
		total += hi - lo
	}
	// Pass 1: out[k] holds fn's answer for copy k; boxes counts the
	// envelopes the rewritten copies need.
	out := proto.Sends(ctx.Pool, total)
	k, boxes := 0, 0
	for _, s := range sends {
		lo, hi := recipients(n, s.To)
		path, leaf := Unwrap(s.Msg)
		for to := lo; to < hi; to++ {
			nl := fn(to, path, leaf)
			out[k], k = proto.Send{To: to, Msg: nl}, k+1
			if nl != nil && nl != Forward {
				boxes += int(path.depth)
			}
		}
	}
	var slab []proto.Envelope
	if boxes > 0 {
		slab = proto.Envelopes(ctx.Pool, boxes)
	}
	// Pass 2, in place: a send never yields more entries than it has
	// copies, so each copy is read before anything overwrites it.
	w, k := 0, 0
	for _, s := range sends {
		lo, hi := recipients(n, s.To)
		copies := out[k : k+hi-lo]
		k += hi - lo
		if len(copies) > 0 && !slices.ContainsFunc(copies, func(cp proto.Send) bool { return cp.Msg != Forward }) {
			out[w], w = s, w+1
			continue
		}
		path, _ := Unwrap(s.Msg)
		for _, cp := range copies {
			switch {
			case cp.Msg == nil:
				continue
			case cp.Msg == Forward:
				cp.Msg = s.Msg
			default:
				for i := int(path.depth) - 1; i >= 0; i-- {
					slab[0] = proto.Envelope{Child: path.tags[i], Inner: cp.Msg}
					cp.Msg, slab = &slab[0], slab[1:]
				}
			}
			out[w], w = cp, w+1
		}
	}
	return out[:w]
}

// expandCopies is PerRecipient's reference shape, the one it had before
// Forward: fn's answer for every in-range copy of every send, Forward
// answered by the original leaf, becomes its own unicast re-wrapped in
// fresh value-form envelopes.
func expandCopies(n int, sends []proto.Send, fn func(to int, path Path, leaf proto.Message) proto.Message) []proto.Send {
	var out []proto.Send
	for _, s := range sends {
		lo, hi := recipients(n, s.To)
		path, leaf := Unwrap(s.Msg)
		for to := lo; to < hi; to++ {
			switch nl := fn(to, path, leaf); nl {
			case nil:
			case Forward:
				out = append(out, proto.Send{To: to, Msg: Wrap(path, leaf)})
			default:
				out = append(out, proto.Send{To: to, Msg: Wrap(path, nl)})
			}
		}
	}
	return out
}
