package field

import (
	"errors"
	"fmt"
)

// ErrDecode is returned by Decode when the points are not within maxErrors
// of any polynomial of the requested degree. Callers (the GVSS recover
// phase) treat it as "dealer exposed as faulty" and substitute a default.
var ErrDecode = errors.New("field: berlekamp-welch decoding failed")

// Decode recovers the unique polynomial of degree <= degree that agrees
// with all but at most maxErrors of the given points, using the
// Berlekamp–Welch algorithm. The x-coordinates must be distinct and
// non-zero (our share indices are 1..n).
//
// With m points and e errors, decoding requires m >= degree+1+2e; the GVSS
// recover phase uses m = n, degree = f, e <= f, which at n = 3f+1 is
// exactly tight — the reason the paper's resiliency bound f < n/3 is
// optimal for this substrate.
func Decode(xs, ys []Elem, degree, maxErrors int) (Poly, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d xs vs %d ys", ErrDecode, len(xs), len(ys))
	}
	m := len(xs)
	if degree < 0 || maxErrors < 0 {
		return nil, fmt.Errorf("%w: negative degree or error bound", ErrDecode)
	}
	// Cap the error-locator degree at what the point count can support.
	if cap := (m - degree - 1) / 2; maxErrors > cap {
		maxErrors = cap
	}
	if maxErrors < 0 {
		return nil, fmt.Errorf("%w: %d points cannot determine degree-%d poly", ErrDecode, m, degree)
	}
	sys := newBWSystem(m, degree, maxErrors)
	for e := maxErrors; e >= 0; e-- {
		if p, ok := sys.tryDecode(xs, ys, degree, e); ok {
			return p, nil
		}
	}
	return nil, ErrDecode
}

// bwSystem is the scratch of one Decode call: a single flat slab, sized
// for the largest error-locator degree, in which every attempt of the e
// loop builds its linear system, solution, error locator and division,
// plus the row headers pivoting swaps. An attempt allocates only the
// polynomial it returns.
type bwSystem struct {
	m, maxCols int
	flat       []Elem
	rows       [][]Elem
	pivots     []int
}

func newBWSystem(m, degree, maxErrors int) bwSystem {
	maxCols := degree + 2*maxErrors + 1 // nq + ne at e = maxErrors
	return bwSystem{
		m: m, maxCols: maxCols,
		// The system (m rows), its right-hand side, then the pivot
		// diagonal, solution, remainder and quotient (each at most
		// maxCols) and the error locator (maxErrors+1).
		flat:   make([]Elem, m*maxCols+m+4*maxCols+maxErrors+1),
		rows:   make([][]Elem, m),
		pivots: make([]int, 0, maxCols),
	}
}

// tryDecode attempts decoding with an error locator of degree exactly e:
// find monic E (degree e) and Q (degree <= degree+e) with
// Q(x_i) = y_i * E(x_i) for all i, then f = Q / E.
func (s *bwSystem) tryDecode(xs, ys []Elem, degree, e int) (Poly, bool) {
	m := s.m
	nq := degree + e + 1 // unknown coefficients of Q
	ne := e              // unknown coefficients of E (monic leading term fixed)
	cols := nq + ne
	flat := s.flat
	carve := func(k int) []Elem {
		out := flat[:k:k]
		flat = flat[k:]
		return out
	}
	// Row i: sum_j q_j x^j - y_i sum_{j<e} E_j x^j = y_i x^e.
	a := s.rows
	for i := range a {
		a[i] = carve(s.maxCols)[:cols]
	}
	b := carve(m)
	diag, x, rem, quot := carve(s.maxCols), carve(s.maxCols), carve(s.maxCols), carve(s.maxCols)
	eloc := Poly(carve(e + 1))
	for i := 0; i < m; i++ {
		row := a[i]
		xp := Elem(1)
		for j := 0; j < nq; j++ {
			row[j] = xp
			xp = Mul(xp, xs[i])
		}
		xp = Elem(1)
		for j := 0; j < ne; j++ {
			row[nq+j] = Neg(Mul(ys[i], xp))
			xp = Mul(xp, xs[i])
		}
		// After the loop xp = xs[i]^ne = xs[i]^e, saving a Pow per row.
		b[i] = Mul(ys[i], xp)
	}
	sol, ok := solveLinear(a, b, s.pivots, diag, x)
	if !ok {
		return nil, false
	}
	q := Poly(sol[:nq]).trim()
	copy(eloc, sol[nq:])
	eloc[e] = 1 // monic
	f, r := polyDivMod(quot, append(rem[:0], q...), eloc)
	if r.Degree() >= 0 || f.Degree() > degree {
		return nil, false
	}
	// Verify: f must disagree with at most e points.
	bad := 0
	for i := 0; i < m; i++ {
		if f.Eval(xs[i]) != ys[i] {
			bad++
		}
	}
	if bad > e {
		return nil, false
	}
	return f.Clone(), true
}

// solveLinear solves A x = b over GF(P) by division-free Gauss–Jordan
// elimination with partial pivoting, returning any solution (free
// variables set to zero) in x, which needs len(a[0]) entries. ok is
// false when the system is inconsistent. A and b are mutated; pivots
// (its capacity reused) and diag (len(a[0]) entries) are scratch.
//
// Instead of normalizing each pivot row with a ~60-multiplication Fermat
// inversion, rows are eliminated by cross-multiplication
// (row_i := p*row_i - a_ic*row_r, valid over a field since every pivot p
// is non-zero), and the accumulated pivot diagonal is inverted once at
// the end with a single Montgomery batch inversion.
func solveLinear(a [][]Elem, b []Elem, pivots []int, diag, x []Elem) ([]Elem, bool) {
	rows := len(a)
	if rows == 0 {
		return nil, false
	}
	cols := len(a[0])
	pivotCol := pivots[:0] // column of the pivot in each reduced row
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		// Find a pivot in column c at or below row r.
		pivot := -1
		for i := r; i < rows; i++ {
			if a[i][c] != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a[r], a[pivot] = a[pivot], a[r]
		b[r], b[pivot] = b[pivot], b[r]
		p := a[r][c]
		for i := 0; i < rows; i++ {
			if i == r || a[i][c] == 0 {
				continue
			}
			factor := a[i][c]
			// Cross-multiplication scales all of row i, so the loop must
			// start at row i's first possibly-nonzero column: rows not yet
			// reduced (i > r) are zero left of c, but earlier pivot rows
			// can hold nonzero entries in skipped (free) columns at or
			// after their own pivot column. row_r itself is zero left of c.
			jStart := c
			if i < r {
				jStart = pivotCol[i]
			}
			// p*x - factor*y as p*x + (P-factor)*y: two canonical
			// products sum below 2^63, so one Reduce yields the same
			// canonical element as Sub(Mul(p, x), Mul(factor, y)).
			neg := uint64(P) - uint64(factor)
			ai, ar := a[i][:cols], a[r][:cols]
			for j := jStart; j < cols; j++ {
				ai[j] = Reduce(uint64(p)*uint64(ai[j]) + neg*uint64(ar[j]))
			}
			b[i] = Reduce(uint64(p)*uint64(b[i]) + neg*uint64(b[r]))
		}
		pivotCol = append(pivotCol, c)
		r++
	}
	// Inconsistency: a zero row with non-zero rhs. (Cross-multiplication
	// scales rows by non-zero pivots only, preserving zero/non-zero.)
	for i := r; i < rows; i++ {
		if b[i] != 0 {
			return nil, false
		}
	}
	// x[c] = b[i] / a[i][c] for each pivot row: one batched inversion.
	diag = diag[:len(pivotCol)]
	for i, c := range pivotCol {
		diag[i] = a[i][c]
	}
	BatchInv(diag, nil)
	x = x[:cols]
	clear(x)
	for i, c := range pivotCol {
		x[c] = Mul(b[i], diag[i])
	}
	return x, true
}

// polyDivMod divides rem by d in place: it returns the quotient, carved
// from quot (which needs room for deg(rem)-deg(d)+1 coefficients), and
// the trimmed remainder, rem's prefix. d must be non-zero; our only
// caller passes a monic E.
func polyDivMod(quot, rem, d Poly) (Poly, Poly) {
	dd := d.Degree()
	if dd < 0 {
		panic("field: division by zero polynomial")
	}
	rem = rem.trim()
	if rem.Degree() < dd {
		return nil, rem
	}
	quot = quot[:rem.Degree()-dd+1]
	clear(quot)
	inv := Inv(d[dd])
	for rem.Degree() >= dd {
		shift := rem.Degree() - dd
		factor := Mul(rem[rem.Degree()], inv)
		quot[shift] = factor
		for i := 0; i <= dd; i++ {
			rem[shift+i] = Sub(rem[shift+i], Mul(factor, d[i]))
		}
		rem = rem.trim()
	}
	return quot, rem
}
