package wire

import (
	"unsafe"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
)

// Decoder is a beat-scoped decode arena: the receive side of the
// message-lifetime contract (package proto — a delivered message is valid
// for its beat only, and whoever keeps one clones it). Decode carves
// every slice of a decoded message — flat matrices, share rows, row
// headers, accept sets — and the envelopes, bulk message structs and
// proposals out of typed slabs the Decoder owns; the remaining scalar
// messages fit the runtime's allocation-free small-value boxes. Reset
// ends the beat.
//
// Lifetime rule: a message from Decode is valid until the next Reset,
// after which its memory belongs to the next beat's messages. The owner
// calls Reset once per beat, after the last reader of that beat's
// messages is done (Deliver, EndBeat and the adversary's Act alike).
// Anything that must outlive the beat goes through proto.Clone, which
// decodes with the nil Decoder.
//
// The nil *Decoder is the package-level Decode: fresh heap memory. The
// zero Decoder is ready to use. A Decoder is not safe
// for concurrent use.
type Decoder struct {
	// Pool, when non-nil, is the lease pool of the node the decoder
	// serves: while that pool is in poison mode, Reset scribbles the arena
	// with invalid values too, so a message illegally kept past its beat
	// reads garbage instead of the next beat's plausible data.
	Pool *pool.Node

	elems    slab[field.Elem]
	bools    slab[bool]
	polys    slab[field.Poly]
	sets     slab[uint16]
	envs     slab[proto.Envelope]
	shares   slab[gvss.ShareMsg]
	echoes   slab[gvss.EchoMsg]
	votes    slab[gvss.VoteMsg]
	recovers slab[gvss.RecoverMsg]
	accepts  slab[coin.AcceptMsg]
	proposes slab[core.ProposeMsg]
}

// arenaCap bounds, in bytes, what one slab keeps across a Reset. A
// constant, not a knob: an honest beat decodes far less at every shape
// the repo runs (≈ 80 KB of field elements per node-beat at n=16), so
// only a Byzantine flood reaches it, and the slabs it swelled are dropped
// instead of retained.
const arenaCap = 4 << 20

// poisonElem is pool's poison element: far above the modulus, so
// arithmetic on it yields garbage and gvss's range validation rejects it.
const poisonElem = field.Elem(^uint64(0))

// Reset ends the beat: every message decoded since the previous Reset is
// dead. A slab that had to grow during the beat is replaced by one chunk
// sized to the beat's total plus an eighth, so the next beat of the same
// shape carves from it without allocating; one whose total exceeded
// arenaCap is dropped. While the Pool is in poison mode, every element
// carved this beat is scribbled with poisonElem, every bool with true,
// every accept-set entry with an id no cluster has, every proposal with
// a value no clock has and every envelope with a child tag no router
// knows (and no inner message), so a message kept past its beat reads
// invalid values until the arena is carved again.
func (d *Decoder) Reset() {
	var pe *field.Elem
	var pb *bool
	var ps *uint16
	var pv *proto.Envelope
	var pp *core.ProposeMsg
	if d.Pool.Poisoned() {
		e, b, s, v, p := poisonElem, true, ^uint16(0), proto.Envelope{Child: ^uint8(0)}, core.ProposeMsg{V: ^uint64(0)}
		pe, pb, ps, pv, pp = &e, &b, &s, &v, &p
	}
	d.elems.reset(pe)
	d.bools.reset(pb)
	d.sets.reset(ps)
	d.envs.reset(pv)
	d.proposes.reset(pp)
	d.polys.reset(nil)
	d.shares.reset(nil)
	d.echoes.reset(nil)
	d.votes.reset(nil)
	d.recovers.reset(nil)
	d.accepts.reset(nil)
}

// slab is one element type's bump allocator. Carved slices are
// handed out with full slice expressions, so no decoded row can grow into
// its neighbour, and chunks are never moved, so pointers into them stay
// valid until reset.
type slab[T any] struct {
	buf     []T   // current chunk; [0, len) is carved this beat
	retired [][]T // chunks outgrown this beat
	total   int   // elements carved this beat
}

// take carves n elements. Their contents are arbitrary: the decoder
// overwrites every one.
func (s *slab[T]) take(n int) []T {
	lo := len(s.buf)
	if lo+n > cap(s.buf) {
		if cap(s.buf) > 0 {
			s.retired = append(s.retired, s.buf)
		}
		s.buf = make([]T, 0, max(n, 2*cap(s.buf)))
		lo = 0
	}
	s.total += n
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// box carves one element holding v and returns its address.
func (s *slab[T]) box(v T) *T {
	p := &s.take(1)[0]
	*p = v
	return p
}

// reset implements Decoder.Reset for one slab, first scribbling what the
// beat carved with *poison when poison is non-nil.
func (s *slab[T]) reset(poison *T) {
	if poison != nil {
		for _, c := range s.retired {
			fill(c, *poison)
		}
		fill(s.buf, *poison)
	}
	grew := len(s.retired) > 0
	clear(s.retired)
	s.retired = s.retired[:0]
	var zero T
	switch limit := arenaCap / int(unsafe.Sizeof(zero)); {
	case s.total > limit:
		s.buf = nil
	case grew:
		s.buf = make([]T, 0, min(s.total+s.total/8, limit))
	default:
		s.buf = s.buf[:0]
	}
	s.total = 0
}

func fill[T any](xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}
