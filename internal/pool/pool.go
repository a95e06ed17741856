// Package pool provides beat-scoped leases for the compose paths: the
// share/echo matrices, vote bitmaps and coin envelopes that make up a
// beat's messages are checked out of a per-node pool during Compose and
// recycled by the pool's owner (the simulation engine) after the beat's
// Deliver phase has completed.
//
// Two lease families share that lifetime. Payload buffers (Elems,
// Bools, Polys) come in three fixed element types and, under an Arena,
// share one free store across views. Typed leases (Lease with a Kind
// from NewKind) hold anything else a beat's messages need — the GVSS
// and coin message structs and their send lists — one exact-size free
// list per kind, kept per view.
//
// The pool exists because of the message-lifetime contract in package
// proto: messages handed to Protocol.Deliver and Adversary.Act are valid
// only for the beat in which they were sent, so their backing memory can
// be reused the following beat instead of feeding the garbage collector
// ~megabytes per beat at n=16. Anything that wants to keep a message
// longer must deep-copy it (proto.Clone).
//
// Ownership and determinism rules:
//
//   - One Node pool per simulated node, used only from that node's
//     Compose call. The engine fans Compose over scheduler workers but a
//     node's Compose always runs on exactly one goroutine per beat, so
//     Node needs no locking; keying pools by node (not by worker) keeps
//     the buffer-reuse pattern — hence every seeded run — byte-identical
//     at every worker count.
//   - Get calls return buffers with ARBITRARY contents (recycled memory).
//     Callers must fully overwrite them or use the *Zero variants; stale
//     bytes leaking into a message would break the pooled/unpooled
//     replay equivalence that the differential harness enforces.
//   - Recycle is called by the owner after the Deliver phase, never
//     earlier: delivered messages may be read concurrently by several
//     nodes' Deliver calls right up to the phase barrier.
//
// Poison mode (Node.SetPoison; sim.PoolPoison in the drivers) scribbles
// every recycled buffer with invalid values — field elements above the
// modulus, true booleans, nil row headers, zeroed typed leases (a
// retained message reads nil slices) — so any component that
// illegally retained a reference into a recycled payload fails loudly
// (validation rejects the garbage or the trace diverges) instead of
// silently reading stale-but-plausible data.
package pool

import (
	"sort"

	"ssbyzclock/internal/field"
)

// poisonElem is an invalid field element (far above the modulus P):
// arithmetic on it yields garbage and the canonical-range validation in
// package gvss rejects it outright, so a poisoned read fails loudly.
const poisonElem = field.Elem(^uint64(0))

// freeList recycles buffers of one element type. Buffers handed out by
// get are tracked on the leased list until recycle moves them back.
// When shared is non-nil the list draws free buffers from (and returns
// them to) that external store — the Arena mechanism — while lease
// accounting stays local, so a view always recycles exactly what it
// leased this beat.
type freeList[T any] struct {
	free   [][]T
	leased [][]T
	shared *[][]T
}

// store returns the free-buffer store this list draws from: its own
// slice, or the arena's when the list is a view.
func (l *freeList[T]) store() *[][]T {
	if l.shared != nil {
		return l.shared
	}
	return &l.free
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
	free := *l.store()
	best := -1
	for i := range free {
		c := cap(free[i])
		if c < n || (best >= 0 && c >= cap(free[best])) {
			continue
		}
		best = i
		if c == n {
			break // exact fit cannot be beaten
		}
	}
	if best >= 0 {
		b := free[best][:n]
		free[best] = free[len(free)-1]
		*l.store() = free[:len(free)-1]
		l.leased = append(l.leased, b)
		return b
	}
	b := make([]T, n)
	l.leased = append(l.leased, b)
	return b
}

// recycle moves every leased buffer back to the free store, scribbling
// each with poison first when non-nil.
func (l *freeList[T]) recycle(poison *T) {
	for _, b := range l.leased {
		b = b[:cap(b)]
		if poison != nil {
			for i := range b {
				b[i] = *poison
			}
		}
		*l.store() = append(*l.store(), b)
	}
	l.leased = l.leased[:0]
}

// Node is one simulated node's beat-scoped lease pool. The zero value
// is ready to use. Not safe for concurrent use: a node's Compose runs on
// one goroutine per beat, and Recycle runs on the owner after the
// Deliver-phase barrier.
type Node struct {
	elems  freeList[field.Elem]
	bools  freeList[bool]
	polys  freeList[field.Poly]
	typed  []typedRecycler // [Kind id], created on the kind's first Lease
	poison bool
}

// SetPoison toggles poison-on-recycle scribbling.
func (p *Node) SetPoison(on bool) { p.poison = on }

// Poisoned reports whether poison mode is on — false for a nil pool, so
// owners whose pooling is off can ask unconditionally. Beat-scoped memory
// kept outside the pool (wire.Decoder's arena) follows it.
func (p *Node) Poisoned() bool { return p != nil && p.poison }

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

// Recycle returns every buffer leased since the previous Recycle to the
// free lists. The owner calls it after the beat's Deliver phase; no
// delivered message may be read afterwards (poison mode enforces this by
// scribbling).
func (p *Node) Recycle() {
	for _, l := range p.typed {
		if l != nil {
			l.recycle(p.poison)
		}
	}
	if p.poison {
		pe, pb := poisonElem, true
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
// elements, bools and row headers, the arena-backed classes; typed
// leases are not counted (observability, the arena's Compact target,
// and tests).
func (p *Node) Leased() int {
	return len(p.elems.leased) + len(p.bools.leased) + len(p.polys.leased)
}

// Kind names one class of typed leases: message structs and send lists
// that live exactly as long as the payloads they carry. Kinds are
// registered with NewKind from package-level variable initializers, so
// the registry is complete before any pool leases.
type Kind[T any] struct{ id int }

// newTyped holds one constructor per registered kind, indexed by id.
var newTyped []func() typedRecycler

// NewKind registers a typed lease kind. Call it only from a package-level
// variable initializer: the registry is not synchronized.
//
// Keep one lease length per kind (separate kinds for 1-entry and n-entry
// send lists, say): the free list is then one exact-size class and
// best-fit stops at its first entry.
func NewKind[T any]() Kind[T] {
	newTyped = append(newTyped, func() typedRecycler { return newTypedList[T]() })
	return Kind[T]{id: len(newTyped) - 1}
}

// Lease returns a []T of length n leased from p for the current beat,
// with arbitrary contents (a recycled message struct still holds the
// slice headers of its last beat), so the caller must overwrite every
// entry it exposes. Recycle returns it with the payload buffers. A nil
// pool allocates fresh, zeroed memory.
//
// Typed free lists are per view: an Arena shares only the payload
// classes, so a view's typed leases never come back through another
// view.
func Lease[T any](p *Node, k Kind[T], n int) []T {
	if p == nil {
		return make([]T, n)
	}
	if k.id >= len(p.typed) {
		p.typed = append(p.typed, make([]typedRecycler, len(newTyped)-len(p.typed))...)
	}
	l := p.typed[k.id]
	if l == nil {
		l = newTyped[k.id]()
		p.typed[k.id] = l
	}
	return l.(*typedList[T]).get(n)
}

// typedRecycler is a typed lease list with its element type erased, so
// one Node can hold lists of every registered kind.
type typedRecycler interface {
	recycle(poison bool)
}

// typedList is one kind's free and leased lists with four entries of
// inline backing each. A fresh pool's first few beats then lease without
// growing either list — which matters to drivers that build fresh pools
// per episode (bench's engine-n16): lazily grown lists cost about two
// allocations per beat there. A deeper backing costs every view its
// size in resident bytes.
type typedList[T any] struct {
	freeList[T]
	freeBuf, leasedBuf [4][]T
}

func newTypedList[T any]() *typedList[T] {
	l := &typedList[T]{}
	l.free = l.freeBuf[:0]
	l.leased = l.leasedBuf[:0]
	return l
}

// recycle returns the kind's leases; poison mode zeroes them, so a
// retained message reads nil slices and fails validation.
func (l *typedList[T]) recycle(poison bool) {
	if poison {
		var zero T
		l.freeList.recycle(&zero)
		return
	}
	l.freeList.recycle(nil)
}

// Arena is a shared free-buffer store that several Node views draw
// from, the multi-tenant pooling layout: thousands of tenant nodes
// multiplexed onto one scheduler worker share one set of recycled
// buffers instead of each hoarding a private free list, while every
// view keeps its own lease accounting so a beat's recycle returns
// exactly that view's leases (beat-scoped recycling per tenant).
//
// Concurrency contract (same as Node, shifted to the arena): an arena
// and ALL of its views must be used from one goroutine at a time. The
// multi-tenant engine enforces this by giving each scheduler worker its
// own arena and assigning every (tenant, node) work unit's view to the
// worker that composes — and recycles — that unit.
type Arena struct {
	elems [][]field.Elem
	bools [][]bool
	polys [][]field.Poly
}

// NewView returns a Node that leases from the arena's shared free
// store. The view tracks its own leases; Recycle returns them to the
// arena. Poison mode is per view (SetPoison), matching the standalone
// Node surface.
func (a *Arena) NewView() *Node {
	n := &Node{}
	n.elems.shared = &a.elems
	n.bools.shared = &a.bools
	n.polys.shared = &a.polys
	return n
}

// FreeBuffers reports the number of buffers currently resident in the
// arena's free store (observability and tests).
func (a *Arena) FreeBuffers() int {
	return len(a.elems) + len(a.bools) + len(a.polys)
}

// compactStore trims a free store to at most keep buffers, retaining
// the largest capacities so best-fit leases of the big matrix blocks
// keep hitting the store; the dropped small buffers are the cheap ones
// to re-allocate if demand returns.
func compactStore[T any](s *[][]T, keep int) {
	st := *s
	if keep < 0 {
		keep = 0
	}
	if len(st) <= keep {
		return
	}
	sort.Slice(st, func(i, j int) bool { return cap(st[i]) > cap(st[j]) })
	clear(st[keep:])
	*s = st[:keep]
}

// Compact trims each of the arena's free stores to at most keep
// buffers, keeping the largest. Early beats of a protocol lease more
// (and larger) buffers than the steady state — dealing matrices only
// exist while shares are in flight — so without compaction the arena
// retains its high-water footprint forever. The owner calls Compact
// with its observed steady-state lease count once the transient has
// passed; an over-aggressive keep is safe (the next lease just
// allocates fresh) but costs the allocation it was supposed to avoid.
func (a *Arena) Compact(keep int) {
	compactStore(&a.elems, keep)
	compactStore(&a.bools, keep)
	compactStore(&a.polys, keep)
}
