package field

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestReduceCanonical(t *testing.T) {
	cases := []struct {
		in   uint64
		want Elem
	}{
		{0, 0},
		{1, 1},
		{P - 1, Elem(P - 1)},
		{P, 0},
		{P + 5, 5},
		{^uint64(0), Elem(^uint64(0) % P)},
	}
	for _, c := range cases {
		if got := Reduce(c.in); got != c.want {
			t.Errorf("Reduce(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := Reduce(a), Reduce(b)
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := Reduce(a), Reduce(b), Reduce(c)
		if Mul(x, y) != Mul(y, x) {
			return false
		}
		return Mul(Mul(x, y), z) == Mul(x, Mul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := Reduce(a), Reduce(b), Reduce(c)
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvIsInverse(t *testing.T) {
	f := func(a uint64) bool {
		x := Reduce(a)
		if x == 0 {
			return true // Inv(0) panics by contract
		}
		return Mul(x, Inv(x)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestNeg(t *testing.T) {
	f := func(a uint64) bool {
		x := Reduce(a)
		return Add(x, Neg(x)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := Reduce(rng.Uint64())
		e := rng.Uint64() % 50
		want := Elem(1)
		for j := uint64(0); j < e; j++ {
			want = Mul(want, a)
		}
		if got := Pow(a, e); got != want {
			t.Fatalf("Pow(%d,%d)=%d want %d", a, e, got, want)
		}
	}
}

func TestFermat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := Reduce(rng.Uint64())
		if a == 0 {
			continue
		}
		if Pow(a, P-1) != 1 {
			t.Fatalf("a^(P-1) != 1 for a=%d", a)
		}
	}
}

func TestPolyEvalKnown(t *testing.T) {
	// p(x) = 3 + 2x + x^2
	p := Poly{3, 2, 1}
	cases := []struct{ x, want Elem }{
		{0, 3}, {1, 6}, {2, 11}, {10, 123},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); got != c.want {
			t.Errorf("p(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestInterpolateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		deg := rng.Intn(8)
		p := RandomPoly(rng, deg, Reduce(rng.Uint64()))
		xs := make([]Elem, deg+1)
		ys := make([]Elem, deg+1)
		for i := range xs {
			xs[i] = Elem(i + 1)
			ys[i] = p.Eval(xs[i])
		}
		q := Interpolate(xs, ys)
		for x := Elem(1); x < 30; x++ {
			if p.Eval(x) != q.Eval(x) {
				t.Fatalf("trial %d: interpolated poly disagrees at x=%d", trial, x)
			}
		}
	}
}

func TestInterpolateConstant(t *testing.T) {
	q := Interpolate([]Elem{5}, []Elem{42})
	if q.Eval(0) != 42 || q.Eval(17) != 42 {
		t.Fatalf("constant interpolation failed: %v", q)
	}
}

func TestDegree(t *testing.T) {
	cases := []struct {
		p    Poly
		want int
	}{
		{nil, -1},
		{Poly{0}, -1},
		{Poly{7}, 0},
		{Poly{0, 0, 3}, 2},
		{Poly{1, 2, 0, 0}, 1},
	}
	for _, c := range cases {
		if got := c.p.Degree(); got != c.want {
			t.Errorf("Degree(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestRandomPolySecretAndDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for deg := 0; deg < 6; deg++ {
		p := RandomPoly(rng, deg, 99)
		if p.Eval(0) != 99 {
			t.Fatalf("secret not at constant term: %v", p)
		}
		if len(p) != deg+1 {
			t.Fatalf("wrong coefficient count: %v", p)
		}
	}
}

func TestDecodeNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		deg := rng.Intn(5)
		p := RandomPoly(rng, deg, Reduce(rng.Uint64()))
		m := deg + 1 + 2*rng.Intn(4)
		xs, ys := evalPoints(p, m)
		got, err := Decode(xs, ys, deg, (m-deg-1)/2)
		if err != nil {
			t.Fatalf("trial %d: decode failed: %v", trial, err)
		}
		if !polyEq(got, p, 40) {
			t.Fatalf("trial %d: wrong polynomial", trial)
		}
	}
}

func TestDecodeCorrectsMaxErrors(t *testing.T) {
	// The GVSS configuration: n = 3f+1 points, degree f, up to f errors.
	rng := rand.New(rand.NewSource(6))
	for f := 1; f <= 4; f++ {
		n := 3*f + 1
		for trial := 0; trial < 20; trial++ {
			p := RandomPoly(rng, f, Reduce(rng.Uint64()))
			xs, ys := evalPoints(p, n)
			// Corrupt exactly f distinct positions with random garbage.
			for _, idx := range rng.Perm(n)[:f] {
				ys[idx] = Add(ys[idx], Elem(1+rng.Uint64()%(P-1)))
			}
			got, err := Decode(xs, ys, f, f)
			if err != nil {
				t.Fatalf("f=%d trial %d: decode failed: %v", f, trial, err)
			}
			if !polyEq(got, p, uint64(n)+5) {
				t.Fatalf("f=%d trial %d: wrong polynomial", f, trial)
			}
		}
	}
}

// FuzzDecode checks Berlekamp–Welch decoding two ways. Honest shape: a
// random polynomial of degree deg, evaluated at m distinct non-zero
// points of which at most maxErrors are corrupted, decodes to exactly
// that polynomial. Hostile shape: arbitrary points (zero and repeated
// x-coordinates included), degree and error bound never panic, and
// Decode returns either ErrDecode or a polynomial of degree <= deg that
// agrees with all but at most the (capped) error bound of the points.
func FuzzDecode(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(3), uint8(1), []byte{})
	f.Add(int64(2), uint8(1), uint8(0), uint8(1), uint8(9), []byte("\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, seed int64, degRaw, extraRaw, errRaw, badRaw uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		deg, maxErrors := int(degRaw%6), int(errRaw%5)
		m := deg + 1 + 2*maxErrors + int(extraRaw%4)
		p := RandomPoly(rng, deg, Reduce(rng.Uint64()))
		xs := make([]Elem, m)
		for i, x := range rng.Perm(4 * m)[:m] {
			xs[i] = Elem(x + 1)
		}
		ys := make([]Elem, m)
		for i, x := range xs {
			ys[i] = p.Eval(x)
		}
		for _, i := range rng.Perm(m)[:int(badRaw)%(maxErrors+1)] {
			ys[i] = Add(ys[i], Elem(1+rng.Uint64()%(P-1)))
		}
		got, err := Decode(xs, ys, deg, maxErrors)
		if err != nil {
			t.Fatalf("deg=%d m=%d maxErrors=%d: %v", deg, m, maxErrors, err)
		}
		if !slices.Equal(got.trim(), p.trim()) {
			t.Fatalf("deg=%d m=%d maxErrors=%d: decoded %v, want %v", deg, m, maxErrors, got, p)
		}

		// Hostile: points from raw, 16 bytes each.
		hm := len(raw) / 16
		hx, hy := make([]Elem, hm), make([]Elem, hm)
		for i := range hx {
			hx[i] = Reduce(binary.LittleEndian.Uint64(raw[16*i:]))
			hy[i] = Reduce(binary.LittleEndian.Uint64(raw[16*i+8:]))
		}
		hdeg, herr := int(degRaw%9), int(errRaw%9)
		got, err = Decode(hx, hy, hdeg, herr)
		if err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("error %v is not ErrDecode", err)
			}
			return
		}
		if got.Degree() > hdeg {
			t.Fatalf("decoded degree %d > %d", got.Degree(), hdeg)
		}
		bound := min(herr, (hm-hdeg-1)/2)
		agree := 0
		for i, x := range hx {
			if got.Eval(x) == hy[i] {
				agree++
			}
		}
		if agree < hm-bound {
			t.Fatalf("decoded poly agrees with %d of %d points, want >= %d", agree, hm, hm-bound)
		}
	})
}

func TestDecodeSecretRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := 3
	n := 3*f + 1
	for trial := 0; trial < 20; trial++ {
		secret := Reduce(rng.Uint64())
		p := RandomPoly(rng, f, secret)
		xs, ys := evalPoints(p, n)
		for _, idx := range rng.Perm(n)[:f] {
			ys[idx] = Reduce(rng.Uint64())
		}
		got, err := Decode(xs, ys, f, f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Eval(0) != secret {
			t.Fatalf("trial %d: secret %d, decoded %d", trial, secret, got.Eval(0))
		}
	}
}

func TestDecodeTooManyErrorsFails(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := 2
	n := 3*f + 1
	failures := 0
	for trial := 0; trial < 30; trial++ {
		p := RandomPoly(rng, f, Reduce(rng.Uint64()))
		xs, ys := evalPoints(p, n)
		// f+1 coordinated errors lying on a different polynomial can fool
		// any decoder into a *different* answer; random errors beyond the
		// bound should usually produce either failure or a wrong secret.
		q := RandomPoly(rng, f, Reduce(rng.Uint64()))
		for _, idx := range rng.Perm(n)[:f+1] {
			ys[idx] = q.Eval(xs[idx])
		}
		got, err := Decode(xs, ys, f, f)
		if err != nil || got.Eval(0) != p.Eval(0) {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("decoder never failed with f+1 adversarial errors; bound is wrong")
	}
}

func TestDecodeRejectsTooFewPoints(t *testing.T) {
	if _, err := Decode([]Elem{1, 2}, []Elem{3, 4}, 4, 0); err == nil {
		t.Fatal("expected error for underdetermined decode")
	}
}

func TestDecodeMismatchedLengths(t *testing.T) {
	if _, err := Decode([]Elem{1}, []Elem{1, 2}, 0, 0); err == nil {
		t.Fatal("expected error for mismatched point lengths")
	}
}

func TestSolveLinearInconsistent(t *testing.T) {
	// x = 1 and x = 2 simultaneously.
	a := [][]Elem{{1}, {1}}
	b := []Elem{1, 2}
	if _, ok := solveLinear(a, b, nil, make([]Elem, 1), make([]Elem, 1)); ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestPolyDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		d := RandomPoly(rng, 1+rng.Intn(4), Reduce(rng.Uint64()))
		if d.Degree() < 0 {
			continue
		}
		q := RandomPoly(rng, rng.Intn(5), Reduce(rng.Uint64()))
		r := RandomPoly(rng, d.Degree()-1, Reduce(rng.Uint64())) // deg < deg(d)
		// p = q*d + r
		p := q.mul(d)
		pp := make(Poly, len(p))
		copy(pp, p)
		for i, c := range r {
			if i < len(pp) {
				pp[i] = Add(pp[i], c)
			} else {
				pp = append(pp, c)
			}
		}
		gotQ, gotR := polyDivMod(make(Poly, len(pp)), pp.Clone(), d)
		if !polyEq(gotQ, q, 20) || !polyEq(gotR, r, 20) {
			t.Fatalf("trial %d: division mismatch", trial)
		}
	}
}

func evalPoints(p Poly, m int) (xs, ys []Elem) {
	xs = make([]Elem, m)
	ys = make([]Elem, m)
	for i := 0; i < m; i++ {
		xs[i] = Elem(i + 1)
		ys[i] = p.Eval(xs[i])
	}
	return xs, ys
}

func polyEq(a, b Poly, upTo uint64) bool {
	for x := uint64(0); x <= upTo; x++ {
		if a.Eval(Elem(x%P)) != b.Eval(Elem(x%P)) {
			return false
		}
	}
	return true
}

func BenchmarkMul(b *testing.B) {
	x, y := Elem(123456789), Elem(987654321)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Inv(Elem(i%int(P-1) + 1))
	}
}

func BenchmarkDecodeF3(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	f := 3
	n := 3*f + 1
	p := RandomPoly(rng, f, 42)
	xs, ys := evalPoints(p, n)
	for _, idx := range rng.Perm(n)[:f] {
		ys[idx] = Reduce(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(xs, ys, f, f); err != nil {
			b.Fatal(err)
		}
	}
}
