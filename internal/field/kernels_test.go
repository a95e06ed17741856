package field

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// evalKernel is one evalColumns implementation under test.
type evalKernel struct {
	name string
	fn   func(dst, coeffs, tab []Elem, n int)
}

// evalKernels lists every evalColumns implementation this platform
// ships, the one installed at init last: the scalar reference, the
// portable kernel, and the arch kernel when the CPU has one. The tests
// call each directly.
func evalKernels() []evalKernel {
	return append([]evalKernel{{"ref", evalColumnsRef}, {"quad8", evalColumnsQuad8}}, archEvalKernels()...)
}

// forEachKernel runs f as one subtest per implementation.
func forEachKernel(t *testing.T, f func(t *testing.T, k evalKernel)) {
	t.Helper()
	for _, k := range evalKernels() {
		t.Run(k.name, func(t *testing.T) { f(t, k) })
	}
}

// TestUseScalarRefs: on installs the scalar reference of evalColumns
// and of every sweep at once, and restoring the returned setting
// reinstalls the set chosen at init — the widest kernel this CPU has.
func TestUseScalarRefs(t *testing.T) {
	ptr := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	installed := func() []uintptr {
		return []uintptr{ptr(evalColumnsImpl), ptr(accumNeqImpl), ptr(sweepTallyImpl),
			ptr(accumBoolImpl), ptr(countBoolImpl), ptr(rangeOrImpl)}
	}
	refs := []uintptr{ptr(evalColumnsRef), ptr(accumNeqRef), ptr(sweepTallyRef),
		ptr(accumBoolRef), ptr(countBoolRef), ptr(rangeOrRef)}
	arch := installed()
	ks := evalKernels()
	if want := ptr(ks[len(ks)-1].fn); arch[0] != want {
		t.Fatalf("init installed kernel %#x, want %s", arch[0], ks[len(ks)-1].name)
	}

	prev := UseScalarRefs(true)
	if prev {
		t.Fatal("scalar references were installed before UseScalarRefs(true)")
	}
	if got := installed(); !slices.Equal(got, refs) {
		t.Fatalf("UseScalarRefs(true) installed %#x, want the references %#x", got, refs)
	}
	if !UseScalarRefs(prev) {
		t.Fatal("UseScalarRefs(prev) did not report the references as the previous setting")
	}
	if got := installed(); !slices.Equal(got, arch) {
		t.Fatalf("restoring installed %#x, want the arch set %#x", got, arch)
	}
}

// hostileTab returns a w×n table salted with boundary values (0, 1, P-1)
// so the lazy-reduction budgets are exercised at their extremes.
func hostileTab(rng *rand.Rand, w, n int) []Elem {
	tab := make([]Elem, w*n)
	for i := range tab {
		switch rng.Intn(5) {
		case 0:
			tab[i] = Elem(P - 1)
		case 1:
			tab[i] = 0
		case 2:
			tab[i] = 1
		default:
			tab[i] = Elem(rng.Uint64() % P)
		}
	}
	return tab
}

// TestEvalKernelsMatchRef pins every kernel bit-for-bit against the
// scalar reference across shapes that hit all block/tail combinations
// (n mod 8 ∈ 0..7, coefficient counts hitting quad, pair and single
// remainders, including the empty polynomial).
func TestEvalKernelsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type shape struct{ n, w int }
	var shapes []shape
	for n := 0; n <= 40; n++ {
		for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 13} {
			shapes = append(shapes, shape{n, w})
		}
	}
	forEachKernel(t, func(t *testing.T, k evalKernel) {
		for _, s := range shapes {
			coeffs := make([]Elem, s.w)
			for i := range coeffs {
				if rng.Intn(4) == 0 {
					coeffs[i] = Elem(P - 1)
				} else {
					coeffs[i] = Elem(rng.Uint64() % P)
				}
			}
			tab := hostileTab(rng, s.w, s.n)
			want := make([]Elem, s.n)
			evalColumnsRef(want, coeffs, tab, s.n)
			got := make([]Elem, s.n)
			for i := range got {
				got[i] = Elem(rng.Uint64()) // poison: kernel must overwrite
			}
			k.fn(got, coeffs, tab, s.n)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("kernel %s n=%d w=%d: dst[%d] = %d, ref %d", k.name, s.n, s.w, j, got[j], want[j])
				}
			}
		}
	})
}

// TestEvalKernelsMaxValues drives every kernel with all inputs at P-1 —
// the worst case for every overflow budget — at the widest shapes.
func TestEvalKernelsMaxValues(t *testing.T) {
	forEachKernel(t, func(t *testing.T, k evalKernel) {
		for _, n := range []int{8, 16, 33, 64} {
			for _, w := range []int{1, 2, 4, 23, 64} {
				coeffs := make([]Elem, w)
				tab := make([]Elem, w*n)
				for i := range coeffs {
					coeffs[i] = Elem(P - 1)
				}
				for i := range tab {
					tab[i] = Elem(P - 1)
				}
				want := make([]Elem, n)
				evalColumnsRef(want, coeffs, tab, n)
				got := make([]Elem, n)
				k.fn(got, coeffs, tab, n)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("kernel %s n=%d w=%d all-max: dst[%d] = %d, ref %d", k.name, n, w, j, got[j], want[j])
					}
				}
			}
		}
	})
}

// FuzzEvalColumns feeds random (coeffs, table, n) shapes to every
// kernel and requires bit-for-bit agreement with the scalar reference.
// Raw bytes map onto elements with a bias toward the P-1 boundary so
// the fold budgets are stressed, not just the happy range.
func FuzzEvalColumns(f *testing.F) {
	f.Add(uint8(16), uint8(6), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(uint8(33), uint8(12), []byte{})
	f.Fuzz(func(t *testing.T, nRaw, wRaw uint8, data []byte) {
		n := int(nRaw % 65)
		w := int(wRaw % 17)
		elemAt := func(i int) Elem {
			// Deterministic element stream from data: little-endian u32
			// windows, every 5th element snapped to P-1.
			var v uint64
			for b := 0; b < 4; b++ {
				idx := i*4 + b
				if idx < len(data) {
					v |= uint64(data[idx]) << (8 * b)
				}
			}
			if i%5 == 4 {
				return Elem(P - 1)
			}
			return Elem(v % P)
		}
		coeffs := make([]Elem, w)
		for i := range coeffs {
			coeffs[i] = elemAt(i)
		}
		tab := make([]Elem, w*n)
		for i := range tab {
			tab[i] = elemAt(w + i)
		}
		want := make([]Elem, n)
		evalColumnsRef(want, coeffs, tab, n)
		got := make([]Elem, n)
		for _, k := range evalKernels()[1:] { // every kernel but ref itself
			for i := range got {
				got[i] = 0xdeadbeef
			}
			k.fn(got, coeffs, tab, n)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("kernel %s n=%d w=%d: dst[%d] = %d, ref %d", k.name, n, w, j, got[j], want[j])
				}
			}
		}
	})
}

// BenchmarkEvalColumns isolates the kernel from protocol noise: one
// (coeffs, table) shape per protocol size (w = f+1 coefficients, n
// points — the GVSS row-evaluation shape), every kernel. ns/elem
// reports time per multiply-add term.
func BenchmarkEvalColumns(b *testing.B) {
	shapes := []struct{ n, w int }{
		{4, 2}, {8, 3}, {16, 6}, {32, 11}, {64, 22},
	}
	rng := rand.New(rand.NewSource(42))
	for _, k := range evalKernels() {
		for _, s := range shapes {
			coeffs := make([]Elem, s.w)
			for i := range coeffs {
				coeffs[i] = Elem(rng.Uint64() % P)
			}
			tab := hostileTab(rng, s.w, s.n)
			dst := make([]Elem, s.n)
			b.Run(k.name+"/n="+itoa(s.n)+"/w="+itoa(s.w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(dst, coeffs, tab, s.n)
				}
				b.StopTimer()
				elems := float64(s.n * s.w)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
