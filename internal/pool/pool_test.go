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
	// A larger request allocates fresh; the small buffer stays pooled for
	// later fits.
	big := p.Elems(128)
	if &big[0] == &a[0] {
		t.Fatal("64-cap buffer served a 128 request")
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

// sameBacking reports whether two leases share a backing array
// (compared at full capacity, since get re-slices).
func sameBacking(a, b []field.Elem) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// TestBestFitSmallAfterLarge is the regression for the first-fit
// eviction bug: with a large and a small buffer free, a small request
// must take the small buffer, so the following large request still
// finds the large one instead of allocating fresh (the pool-eviction
// effect behind the old n=32 B/op floor).
func TestBestFitSmallAfterLarge(t *testing.T) {
	var p Node
	large := p.Elems(4096)
	small := p.Elems(8)
	p.Recycle()
	if got := p.Elems(8); !sameBacking(got, small) {
		t.Fatalf("small lease consumed the wrong free buffer (cap=%d, want %d)", cap(got), cap(small))
	}
	if got := p.Elems(4096); !sameBacking(got, large) {
		t.Fatal("large buffer was evicted by the small lease: fresh allocation")
	}
}

// TestBestFitPrefersTightest: among several sufficient buffers the
// smallest sufficient capacity wins, regardless of free-list position.
func TestBestFitPrefersTightest(t *testing.T) {
	var p Node
	b1 := p.Elems(100)
	b2 := p.Elems(32)
	b3 := p.Elems(48)
	p.Recycle()
	if got := p.Elems(40); !sameBacking(got, b3) {
		t.Fatalf("lease of 40 got cap %d, want the cap-48 buffer", cap(got))
	}
	if got := p.Elems(32); !sameBacking(got, b2) {
		t.Fatalf("lease of 32 got cap %d, want the exact-fit cap-32 buffer", cap(got))
	}
	if got := p.Elems(64); !sameBacking(got, b1) {
		t.Fatalf("lease of 64 got cap %d, want the cap-100 buffer", cap(got))
	}
}

// TestArenaViewsShareFreeStore: buffers recycled through one view are
// available to a sibling view of the same arena, while lease
// accounting stays per view.
func TestArenaViewsShareFreeStore(t *testing.T) {
	var a Arena
	v1, v2 := a.NewView(), a.NewView()
	b1 := v1.Elems(256)
	_ = v2.Elems(16)
	if v1.Leased() != 1 || v2.Leased() != 1 {
		t.Fatalf("per-view lease counts = (%d, %d), want (1, 1)", v1.Leased(), v2.Leased())
	}
	v1.Recycle()
	if v1.Leased() != 0 || v2.Leased() != 1 {
		t.Fatalf("recycle of v1 touched v2's leases: (%d, %d)", v1.Leased(), v2.Leased())
	}
	if a.FreeBuffers() != 1 {
		t.Fatalf("arena FreeBuffers = %d after one recycle, want 1", a.FreeBuffers())
	}
	if got := v2.Elems(256); !sameBacking(got, b1) {
		t.Fatal("sibling view did not reuse the arena's free buffer")
	}
	if a.FreeBuffers() != 0 {
		t.Fatalf("arena FreeBuffers = %d after re-lease, want 0", a.FreeBuffers())
	}
}

// TestArenaViewPoison: poison stays a per-view setting and scribbles on
// the way back into the shared store.
func TestArenaViewPoison(t *testing.T) {
	var a Arena
	v := a.NewView()
	v.SetPoison(true)
	e := v.Elems(8)
	clear(e)
	v.Recycle()
	if e[0] < field.Elem(field.P) {
		t.Fatalf("arena view did not poison recycled buffer: %d", e[0])
	}
}

// TestArenaCompact: Compact keeps the largest buffers per class and
// drops the rest; a keep at or above the store size is a no-op.
func TestArenaCompact(t *testing.T) {
	var a Arena
	v := a.NewView()
	small := v.Elems(8)
	mid := v.Elems(64)
	big := v.Elems(512)
	_ = small
	v.Recycle()
	a.Compact(5) // above store size: no-op
	if a.FreeBuffers() != 3 {
		t.Fatalf("FreeBuffers = %d after generous Compact, want 3", a.FreeBuffers())
	}
	a.Compact(2)
	if a.FreeBuffers() != 2 {
		t.Fatalf("FreeBuffers = %d after Compact(2), want 2", a.FreeBuffers())
	}
	if got := v.Elems(512); !sameBacking(got, big) {
		t.Fatal("Compact dropped the largest buffer")
	}
	if got := v.Elems(64); !sameBacking(got, mid) {
		t.Fatal("Compact dropped the second-largest buffer")
	}
	if got := v.Elems(8); cap(got) != 8 {
		t.Fatalf("smallest buffer survived Compact(2): cap %d", cap(got))
	}
	v.Recycle()
	a.Compact(0)
	if a.FreeBuffers() != 0 {
		t.Fatalf("FreeBuffers = %d after Compact(0), want 0", a.FreeBuffers())
	}
}
