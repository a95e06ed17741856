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
// Two lease families share that lifetime:
//
//   - Payload buffers (Elems, Bools, Polys) in three fixed element
//     types, each a best-fit free list: the compose paths lease a few
//     large matrix blocks per beat, and the owner can Compact the free
//     store after a transient spike.
//   - Typed leases (Lease with a Kind from NewKind) for anything else.
//     Each kind is a bump allocator: a lease carves the next n entries
//     of one chunk, O(1) whatever the beat's lease count, which the
//     receive path needs (a warm n=4 node-beat decodes about a hundred
//     rows). A chunk outgrown during a beat is retired, and Recycle
//     replaces the retired chunks by one sized to the beat's total plus
//     an eighth, so a steady beat carves without allocating.
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
//   - A flood is not kept: Recycle drops a payload buffer, or a kind's
//     chunk, above arenaCap instead of keeping it for the next beat.
//
// Poison mode (Node.SetPoison; sim.PoolPoison in the drivers) scribbles
// every recycled lease with a value no reader accepts — PoisonElem for
// field elements, true for bools, nil for row headers, and for each
// typed kind the poison it was registered with — so any component that
// illegally retained a reference fails loudly (validation rejects the
// garbage or the trace diverges) instead of silently reading
// stale-but-plausible data.
package pool

import (
	"sort"
	"unsafe"

	"ssbyzclock/internal/field"
)

// PoisonElem is the invalid field element poison mode writes (far above
// the modulus P): arithmetic on it yields garbage and the canonical-range
// validation in package gvss rejects it outright.
const PoisonElem = field.Elem(^uint64(0))

// arenaCap bounds, in bytes, the one payload buffer or one kind's chunk
// a Recycle keeps. A constant, not a knob: an honest beat leases far less
// at every shape the repo runs (≈ 80 KB of decoded field elements per
// node-beat at n=16), so only a Byzantine flood reaches it.
const arenaCap = 4 << 20

func sizeOf[T any]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// freeList recycles payload buffers of one element type. Buffers handed
// out by get are tracked on the leased list until recycle moves them
// back.
type freeList[T any] struct {
	free   [][]T
	leased [][]T
}

// get returns a buffer of length n, reusing the free buffer with the
// SMALLEST sufficient capacity (best-fit). Contents are arbitrary.
//
// Best-fit matters because the free list mixes sizes: compose paths
// lease one large matrix block plus several small header arrays per
// beat, and a first-fit scan would happily hand the single large block
// to a header-sized request, forcing a fresh large allocation on the
// next matrix lease — the pool-eviction effect behind the old n=32
// B/op floor.
func (l *freeList[T]) get(n int) []T {
	best := -1
	for i, b := range l.free {
		c := cap(b)
		if c < n || (best >= 0 && c >= cap(l.free[best])) {
			continue
		}
		best = i
		if c == n {
			break // exact fit cannot be beaten
		}
	}
	var b []T
	if best >= 0 {
		b = l.free[best][:n]
		last := len(l.free) - 1
		l.free[best] = l.free[last]
		l.free[last] = nil
		l.free = l.free[:last]
	} else {
		b = make([]T, n)
	}
	l.leased = append(l.leased, b)
	return b
}

// recycle moves every leased buffer back to the free list, scribbling
// each with poison first when non-nil; a buffer above arenaCap is
// dropped instead.
func (l *freeList[T]) recycle(poison *T) {
	limit := arenaCap / sizeOf[T]()
	for i, b := range l.leased {
		l.leased[i] = nil
		b = b[:cap(b)]
		if poison != nil {
			fill(b, *poison)
		}
		if len(b) <= limit {
			l.free = append(l.free, b)
		}
	}
	l.leased = l.leased[:0]
}

func fill[T any](xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}

// Node is one node's beat-scoped lease pool. The zero value is ready to
// use. Not safe for concurrent use (see the package comment).
type Node struct {
	elems  freeList[field.Elem]
	bools  freeList[bool]
	polys  freeList[field.Poly]
	typed  []recycler // [Kind id], created on the kind's first Lease
	poison bool
}

// SetPoison toggles poison-on-recycle scribbling.
func (p *Node) SetPoison(on bool) { p.poison = on }

// Elems returns a leased []field.Elem of length n with arbitrary
// contents; the caller must overwrite every element it exposes. Like
// every lease below, a nil pool allocates fresh memory instead.
func (p *Node) Elems(n int) []field.Elem {
	if p == nil {
		return make([]field.Elem, n)
	}
	return p.elems.get(n)
}

// ElemsZero is Elems with the buffer cleared.
func (p *Node) ElemsZero(n int) []field.Elem {
	b := p.Elems(n)
	clear(b)
	return b
}

// Bools returns a leased []bool of length n with arbitrary contents.
func (p *Node) Bools(n int) []bool {
	if p == nil {
		return make([]bool, n)
	}
	return p.bools.get(n)
}

// BoolsZero is Bools with the buffer cleared.
func (p *Node) BoolsZero(n int) []bool {
	b := p.Bools(n)
	clear(b)
	return b
}

// Polys returns a leased row-header array ([]field.Poly) of length n
// with arbitrary contents.
func (p *Node) Polys(n int) []field.Poly {
	if p == nil {
		return make([]field.Poly, n)
	}
	return p.polys.get(n)
}

// Recycle ends the beat: every lease since the previous Recycle —
// payload buffers and typed leases alike — is dead, and its memory
// serves the next beat. Call it once per beat, after the last reader of
// the beat's messages (see the package comment for where each executor
// does); poison mode scribbles everything it returns. A nil pool has
// nothing to recycle.
func (p *Node) Recycle() {
	if p == nil {
		return
	}
	for _, s := range p.typed {
		if s != nil {
			s.recycle(p.poison)
		}
	}
	if p.poison {
		pe, pb := PoisonElem, true
		var pp field.Poly
		p.elems.recycle(&pe)
		p.bools.recycle(&pb)
		p.polys.recycle(&pp)
		return
	}
	p.elems.recycle(nil)
	p.bools.recycle(nil)
	p.polys.recycle(nil)
}

// Leased reports the number of currently leased payload buffers —
// elements, bools and row headers; typed leases are not counted
// (observability, the Compact target, and tests).
func (p *Node) Leased() int {
	return len(p.elems.leased) + len(p.bools.leased) + len(p.polys.leased)
}

// FreeBuffers reports the number of payload buffers resident in the
// free lists between beats (observability, the Compact trigger, and
// tests).
func (p *Node) FreeBuffers() int {
	return len(p.elems.free) + len(p.bools.free) + len(p.polys.free)
}

// compactList trims a free list to at most keep buffers, retaining the
// largest capacities so best-fit leases of the big matrix blocks keep
// hitting it; the dropped small buffers are the cheap ones to
// re-allocate if demand returns.
func compactList[T any](l *freeList[T], keep int) {
	keep = max(keep, 0)
	if len(l.free) <= keep {
		return
	}
	sort.Slice(l.free, func(i, j int) bool { return cap(l.free[i]) > cap(l.free[j]) })
	clear(l.free[keep:])
	l.free = l.free[:keep]
}

// Compact trims each payload free list to at most keep buffers, keeping
// the largest. Early beats of a protocol lease more (and larger) buffers
// than the steady state — dealing matrices only exist while shares are
// in flight — so without compaction a pool serving many tenants retains
// its high-water footprint forever. The owner calls Compact between
// beats with its observed steady-state lease count; an over-aggressive
// keep is safe (the next lease just allocates fresh) but costs the
// allocation it was supposed to avoid.
func (p *Node) Compact(keep int) {
	compactList(&p.elems, keep)
	compactList(&p.bools, keep)
	compactList(&p.polys, keep)
}

// Kind names one class of typed leases. Kinds are registered with
// NewKind from package-level variable initializers, so the registry is
// complete before any pool leases.
type Kind[T any] struct{ id int }

// newSlab holds one constructor per registered kind, indexed by id.
var newSlab []func() recycler

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
	newSlab = append(newSlab, func() recycler { return &slab[T]{poison: poison} })
	return Kind[T]{id: len(newSlab) - 1}
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
		p.typed = append(p.typed, make([]recycler, len(newSlab)-len(p.typed))...)
	}
	s := p.typed[k.id]
	if s == nil {
		s = newSlab[k.id]()
		p.typed[k.id] = s
	}
	return s.(*slab[T]).take(n)
}

// recycler is a kind's slab with its element type erased, so one Node
// can hold slabs of every registered kind.
type recycler interface {
	recycle(poison bool)
}

// minChunk is a fresh slab's first chunk, in entries: kinds leased one
// entry at a time (envelopes, message structs) skip the smallest
// doublings of their first beat.
const minChunk = 8

// slab is one kind's bump allocator. Leases are carved with full slice
// expressions, and chunks are never moved, so pointers into them stay
// valid until recycle.
type slab[T any] struct {
	buf     []T   // current chunk; [0, len) is carved this beat
	retired [][]T // chunks outgrown this beat
	total   int   // entries carved this beat
	poison  T
}

func (s *slab[T]) take(n int) []T {
	lo := len(s.buf)
	if lo+n > cap(s.buf) {
		if cap(s.buf) > 0 {
			s.retired = append(s.retired, s.buf)
		}
		s.buf = make([]T, 0, max(n, 2*cap(s.buf), minChunk))
		lo = 0
	}
	s.total += n
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// recycle ends the beat for one kind, first scribbling what the beat
// carved with the kind's poison when poison is set. A slab that had to
// grow is replaced by one chunk of the beat's total plus an eighth; one
// whose total exceeded arenaCap is dropped.
func (s *slab[T]) recycle(poison bool) {
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
	s.total = 0
}
