// Package pool provides beat-scoped leases: every buffer that lives
// exactly one beat — the share/echo matrices, vote bitmaps and coin
// payloads a node composes, the message structs, envelopes and send
// lists around them, the inboxes a parent splits for its children, and
// every slice of every message the networked receive path decodes — is
// checked out of the node's pool and ended by one Recycle per beat.
//
// The pool exists because of the message-lifetime contract in package
// proto: a message sent at beat r is valid only for beat r, so its
// backing memory can be reused the following beat instead of feeding
// the garbage collector ~megabytes per beat at n=16. Anything that
// wants to keep a message longer must deep-copy it (proto.Clone).
//
// One allocator serves every lease: a kind (Kind, registered with
// NewKind) is a bump allocator over one chunk, so a lease carves the
// next n entries in O(1) whatever the beat's lease count — the receive
// path needs that (a warm n=4 node-beat decodes about a hundred rows),
// and the compose paths' few large matrix blocks cost the same. The
// payload blocks (Elems, Bools, Polys) are three kinds this package
// registers; every other kind is registered by the package that owns
// its type (one per message type, plus envelopes, sends and inboxes).
// A chunk outgrown during a beat is retired, and Recycle replaces the
// retired chunks by one sized to the beat's total plus an eighth, so a
// steady beat carves without allocating.
//
// Where the one Recycle sits, per executor — always after the last
// reader of the beat's messages and before the next beat's Compose:
//
//   - sim.Engine: after the Deliver-phase barrier (delivered messages
//     may be read concurrently by several nodes' Deliver calls right up
//     to it).
//   - multi.Engine: after each chunk's Deliver pass, on the group's
//     pool.
//   - noderuntime.Node, noderuntime.AdvHost and the public
//     ssbyzclock.Node: before the next beat's Compose. The composed
//     messages die at encode and the decoded ones after Deliver (and,
//     for the adversary host, after the adversary's Act), so that one
//     point covers both.
//
// Ownership and determinism rules:
//
//   - One pool per simulated node (or per multi-tenant worker group),
//     used by one goroutine at a time: a node's Compose and Deliver are
//     never concurrent with each other, so Node needs no locking.
//     Keying pools by node (not by worker) keeps the buffer-reuse
//     pattern — hence every seeded run — byte-identical at every worker
//     count.
//   - Leases return buffers with ARBITRARY contents (recycled memory).
//     Callers must fully overwrite them or use the *Zero variants; stale
//     bytes leaking into a message would break the pooled/unpooled
//     replay equivalence that the differential harness enforces.
//   - A flood is not kept: Recycle drops a kind's chunk above arenaCap
//     instead of keeping it for the next beat.
//
// Poison mode (Node.SetPoison; sim.PoolPoison in the drivers) scribbles
// every recycled lease with the poison its kind was registered with — a
// value no reader accepts: PoisonElem for field elements, true for
// bools, nil for row headers and message slices — so any component that
// illegally retained a reference fails loudly (validation rejects the
// garbage or the trace diverges) instead of silently reading
// stale-but-plausible data.
package pool

import (
	"unsafe"

	"ssbyzclock/internal/field"
)

// PoisonElem is the invalid field element poison mode writes (far above
// the modulus P): arithmetic on it yields garbage and the canonical-range
// validation in package gvss rejects it outright.
const PoisonElem = field.Elem(^uint64(0))

// arenaCap bounds, in bytes, the one chunk a kind keeps across a
// Recycle. A constant, not a knob: an honest beat leases far less at
// every shape the repo runs (≈ 80 KB of decoded field elements per
// node-beat at n=16), so only a Byzantine flood reaches it.
const arenaCap = 4 << 20

func sizeOf[T any]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

func fill[T any](xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}

// Node is one node's beat-scoped lease pool. The zero value is ready to
// use. Not safe for concurrent use (see the package comment).
type Node struct {
	typed  []recycler // [Kind id], created on the kind's first Lease
	poison bool
}

// SetPoison toggles poison-on-recycle scribbling.
func (p *Node) SetPoison(on bool) { p.poison = on }

// The payload kinds: the element, bool and row-header blocks of the
// GVSS matrices, leased by the compose paths and package wire's decoder
// alike. No other package registers a kind of these types.
var (
	elemKind = NewKind(PoisonElem)
	boolKind = NewKind(true)
	polyKind = NewKind[field.Poly](nil)
)

// Elems leases a []field.Elem of length n with arbitrary contents; the
// caller must overwrite every element it exposes. Like every lease, a
// nil pool allocates fresh memory instead.
func (p *Node) Elems(n int) []field.Elem { return Lease(p, elemKind, n) }

// ElemsZero is Elems with the buffer cleared.
func (p *Node) ElemsZero(n int) []field.Elem {
	b := p.Elems(n)
	clear(b)
	return b
}

// Bools leases a []bool of length n with arbitrary contents.
func (p *Node) Bools(n int) []bool { return Lease(p, boolKind, n) }

// BoolsZero is Bools with the buffer cleared.
func (p *Node) BoolsZero(n int) []bool {
	b := p.Bools(n)
	clear(b)
	return b
}

// Polys leases a row-header array ([]field.Poly) of length n with
// arbitrary contents.
func (p *Node) Polys(n int) []field.Poly { return Lease(p, polyKind, n) }

// Recycle ends the beat: every lease since the previous Recycle is
// dead, and its memory serves the next beat. Call it once per beat,
// after the last reader of the beat's messages (see the package comment
// for where each executor does); poison mode scribbles everything it
// returns. O(kinds) outside poison mode. A nil pool has nothing to
// recycle.
func (p *Node) Recycle() {
	if p == nil {
		return
	}
	for _, s := range p.typed {
		if s != nil {
			s.recycle(p.poison)
		}
	}
}

// Leased reports the number of leases, of every kind, since the last
// Recycle (observability and tests).
func (p *Node) Leased() int {
	n := 0
	for _, s := range p.typed {
		if s != nil {
			n += s.leased()
		}
	}
	return n
}

// Kind names one class of typed leases. Kinds are registered with
// NewKind from package-level variable initializers, so the registry is
// complete before any pool leases.
type Kind[T any] struct{ id int }

// newBump holds one constructor per registered kind, indexed by id.
var newBump []func() recycler

// NewKind registers a typed lease kind whose recycled entries poison
// mode overwrites with poison. Call it only from a package-level
// variable initializer: the registry is not synchronized.
//
// The poison must be a value no reader can mistake for a live one. The
// zero value serves most kinds — a message struct with nil slices fails
// validation, a send or a received message with a nil Msg carries
// nothing — but not the kinds whose zero is plausible: field elements
// (PoisonElem), bools (true), accept-set ids (^0), envelopes (a child
// tag no router knows) and proposals (a value no clock has).
func NewKind[T any](poison T) Kind[T] {
	newBump = append(newBump, func() recycler { return &bump[T]{poison: poison} })
	return Kind[T]{id: len(newBump) - 1}
}

// Lease returns a []T of length n (and capacity n, so it cannot grow
// into its neighbour) leased from p for the current beat, with
// arbitrary contents, so the caller must overwrite every entry it
// exposes. O(1): it carves the kind's current chunk. A nil pool
// allocates fresh, zeroed memory.
func Lease[T any](p *Node, k Kind[T], n int) []T {
	if p == nil {
		return make([]T, n)
	}
	if k.id >= len(p.typed) {
		p.typed = append(p.typed, make([]recycler, len(newBump)-len(p.typed))...)
	}
	s := p.typed[k.id]
	if s == nil {
		s = newBump[k.id]()
		p.typed[k.id] = s
	}
	return s.(*bump[T]).take(n)
}

// recycler is a kind's allocator with its element type erased, so one
// Node can hold the allocators of every registered kind.
type recycler interface {
	recycle(poison bool)
	leased() int
}

// minChunk is a fresh allocator's first chunk, in entries: kinds leased
// one entry at a time (envelopes, message structs) skip the smallest
// doublings of their first beat.
const minChunk = 8

// bump is one kind's bump allocator. Leases are carved with full slice
// expressions, and chunks are never moved, so pointers into them stay
// valid until recycle.
type bump[T any] struct {
	buf     []T   // current chunk; [0, len) is carved this beat
	retired [][]T // chunks outgrown this beat
	total   int   // entries carved this beat
	leases  int   // leases carved this beat
	poison  T
}

func (s *bump[T]) take(n int) []T {
	lo := len(s.buf)
	if lo+n > cap(s.buf) {
		if cap(s.buf) > 0 {
			s.retired = append(s.retired, s.buf)
		}
		s.buf = make([]T, 0, max(n, 2*cap(s.buf), minChunk))
		lo = 0
	}
	s.total += n
	s.leases++
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// recycle ends the beat for one kind, first scribbling what the beat
// carved with the kind's poison when poison is set. An allocator that
// had to grow is replaced by one chunk of the beat's total plus an
// eighth; one whose total exceeded arenaCap is dropped.
func (s *bump[T]) recycle(poison bool) {
	if poison {
		for _, c := range s.retired {
			fill(c, s.poison)
		}
		fill(s.buf, s.poison)
	}
	grew := len(s.retired) > 0
	clear(s.retired)
	s.retired = s.retired[:0]
	switch limit := arenaCap / sizeOf[T](); {
	case s.total > limit:
		s.buf = nil
	case grew:
		s.buf = make([]T, 0, min(s.total+s.total/8, limit))
	default:
		s.buf = s.buf[:0]
	}
	s.total, s.leases = 0, 0
}

func (s *bump[T]) leased() int { return s.leases }
