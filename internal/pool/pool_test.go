package pool

import (
	"testing"

	"ssbyzclock/internal/field"
)

func TestLeaseRecycleReuse(t *testing.T) {
	var p Node
	a := p.Elems(64)
	b := p.Bools(16)
	if p.Leased() != 2 {
		t.Fatalf("leased = %d, want 2", p.Leased())
	}
	a[0], b[0] = 7, true
	p.Recycle()
	if p.Leased() != 0 {
		t.Fatalf("leased after recycle = %d, want 0", p.Leased())
	}
	// Same-size leases must reuse the recycled backing, not allocate.
	a2 := p.Elems(64)
	if &a2[0] != &a[0] {
		t.Fatal("recycled elem buffer not reused")
	}
	// A second lease in the beat never shares the first's memory.
	if big := p.Elems(128); &big[0] == &a[0] {
		t.Fatal("one elem buffer handed out twice in a beat")
	}
	if got := p.ElemsZero(64); got[0] != 0 {
		t.Fatalf("ElemsZero returned dirty buffer: %d", got[0])
	}
	if got := p.BoolsZero(16); got[0] {
		t.Fatal("BoolsZero returned dirty buffer")
	}
}

func TestPoisonScribblesOnRecycle(t *testing.T) {
	var p Node
	p.SetPoison(true)
	e := p.Elems(8)
	bl := p.Bools(8)
	po := p.Polys(4)
	po[0] = field.Poly{1}
	clear(e)
	for i := range bl {
		bl[i] = false
	}
	p.Recycle()
	// The caller-visible buffers alias the recycled backing: poison must
	// now be visible through the retained references — that is the bug
	// the mode exists to expose.
	if e[0] < field.Elem(field.P) {
		t.Fatalf("recycled elems not poisoned: %d", e[0])
	}
	if !bl[0] {
		t.Fatal("recycled bools not poisoned")
	}
	if po[0] != nil {
		t.Fatal("recycled headers not poisoned to nil")
	}
}

// Typed lease kinds for the tests below. msgKind and msgKind2 share an
// element type, so their independence is a property of the kind, not
// of the type.
type testMsg struct {
	Vals []field.Elem
	N    int
}

var (
	msgKind  = NewKind(testMsg{})
	msgKind2 = NewKind(testMsg{})
	intKind  = NewKind(-1)
)

// TestTypedLeaseReuse: a lease has the requested length, Recycle returns
// it (so the next lease of the kind reuses it), and a lease with none
// free allocates fresh. Leased counts leases of every kind alike.
func TestTypedLeaseReuse(t *testing.T) {
	var p Node
	a := Lease(&p, msgKind, 4)
	if len(a) != 4 {
		t.Fatalf("lease length = %d, want 4", len(a))
	}
	p.Bools(2)
	if p.Leased() != 2 {
		t.Fatalf("Leased = %d after one typed and one payload lease, want 2", p.Leased())
	}
	a[3].N = 7
	p.Recycle()
	b := Lease(&p, msgKind, 4)
	if &b[0] != &a[0] {
		t.Fatal("recycled typed lease not reused")
	}
	if b[3].N != 7 {
		t.Fatal("non-poison recycle changed the entries")
	}
	if c := Lease(&p, msgKind, 4); &c[0] == &a[0] {
		t.Fatal("one lease handed out twice in a beat")
	}
}

// TestTypedLeaseNilPool: without a pool every lease — typed or
// payload — is fresh, zeroed memory.
func TestTypedLeaseNilPool(t *testing.T) {
	var p *Node
	if e, b, h := p.Elems(2), p.Bools(2), p.Polys(2); len(e) != 2 || len(b) != 2 || len(h) != 2 {
		t.Fatalf("nil-pool payload leases have lengths %d, %d, %d, want 2", len(e), len(b), len(h))
	}
	a := Lease(p, msgKind, 3)
	if len(a) != 3 || a[0].N != 0 || a[0].Vals != nil {
		t.Fatalf("nil-pool lease = %+v, want 3 zero entries", a)
	}
	if b := Lease(p, msgKind, 3); &b[0] == &a[0] {
		t.Fatal("nil pool reused memory")
	}
}

// TestTypedKindsIndependent: each kind has its own free list, even
// kinds of the same element type.
func TestTypedKindsIndependent(t *testing.T) {
	var p Node
	a := Lease(&p, msgKind, 2)
	i := Lease(&p, intKind, 2)
	p.Recycle()
	if b := Lease(&p, msgKind2, 2); &b[0] == &a[0] {
		t.Fatal("a kind of the same element type took another kind's lease")
	}
	if got := Lease(&p, intKind, 2); &got[0] != &i[0] {
		t.Fatal("int kind did not reuse its own lease")
	}
	if got := Lease(&p, msgKind, 2); &got[0] != &a[0] {
		t.Fatal("msg kind did not reuse its own lease")
	}
}

// TestTypedLeasePoison: poison mode overwrites recycled entries with
// the kind's poison — the zero value for msgKind, so a retained message
// reads nil slices, and -1 for intKind — including entries carved from
// a chunk the beat outgrew.
func TestTypedLeasePoison(t *testing.T) {
	var p Node
	p.SetPoison(true)
	a := Lease(&p, msgKind, 2)
	a[1] = testMsg{Vals: p.Elems(4), N: 5}
	var ints [][]int
	for i := 0; i < 4; i++ { // outgrows the first chunk
		ints = append(ints, Lease(&p, intKind, 3))
	}
	for _, l := range ints {
		for j := range l {
			l[j] = 7
		}
	}
	p.Recycle()
	if a[1].Vals != nil || a[1].N != 0 {
		t.Fatalf("recycled typed lease not zeroed: %+v", a[1])
	}
	for i, l := range ints {
		for _, v := range l {
			if v != -1 {
				t.Fatalf("int lease %d reads %d after recycle, not the kind's poison", i, v)
			}
		}
	}
}

// TestTypedLeaseFullCapacity: a lease cannot grow into its neighbour.
func TestTypedLeaseFullCapacity(t *testing.T) {
	var p Node
	a := Lease(&p, intKind, 3)
	if cap(a) != 3 {
		t.Fatalf("lease of 3 has cap %d", cap(a))
	}
}

// TestSlabRightSizes: a beat that outgrew a kind's chunk leaves one
// chunk of its total plus an eighth, which the same beat again fills
// without growing.
func TestSlabRightSizes(t *testing.T) {
	var p Node
	for i := 0; i < 40; i++ {
		Lease(&p, intKind, 5)
	}
	p.Recycle()
	s := p.typed[intKind.id].(*bump[int])
	if want := 200 + 200/8; cap(s.buf) != want || len(s.retired) != 0 {
		t.Fatalf("after a beat of 200 entries the chunk holds %d (+%d retired), want %d", cap(s.buf), len(s.retired), want)
	}
	first := Lease(&p, intKind, 5)
	for i := 1; i < 40; i++ {
		Lease(&p, intKind, 5)
	}
	if len(s.retired) != 0 || &first[0] != &s.buf[0] {
		t.Fatal("the same beat again outgrew the right-sized chunk")
	}
}

// TestRecycleDropsFloods: one oversize beat — a Byzantine flood at the
// decoder — leaves no chunk above arenaCap behind, while the kinds the
// flood did not reach keep theirs, and the pool still leases afterwards.
func TestRecycleDropsFloods(t *testing.T) {
	var p Node
	const big = arenaCap/8 + 1 // field elements are 8 bytes
	Lease(&p, msgKind, 1)
	p.Elems(4)
	p.Elems(big) // outgrows the first chunk
	p.Bools(16)
	p.Recycle()
	if s := p.typed[elemKind.id].(*bump[field.Elem]); cap(s.buf) != 0 || len(s.retired) != 0 {
		t.Fatalf("the flooded kind kept cap %d, %d retired chunks", cap(s.buf), len(s.retired))
	}
	if s := p.typed[boolKind.id].(*bump[bool]); cap(s.buf) != 16 {
		t.Fatalf("an unflooded kind kept cap %d, want 16", cap(s.buf))
	}
	if got := p.Elems(4); len(got) != 4 {
		t.Fatal("no lease after the flood")
	}
}

// TestTypedLeaseSteadyNoAlloc: once a pool has seen a beat's leases,
// the same beat again allocates nothing.
func TestTypedLeaseSteadyNoAlloc(t *testing.T) {
	var p Node
	beat := func() {
		Lease(&p, msgKind, 4)
		Lease(&p, msgKind, 4)
		Lease(&p, intKind, 1)
		p.Recycle()
	}
	beat()
	if a := testing.AllocsPerRun(20, beat); a != 0 {
		t.Fatalf("warm typed lease beat allocates %.1f times", a)
	}
}
