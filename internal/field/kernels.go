package field

// SIMD-shaped evaluation kernels.
//
// evalColumns — dst[j] = sum_k coeffs[k] * tab[k*n+j] for j in [0, n) —
// is the shared inner kernel of every batched polynomial evaluation in
// the coin pipeline: the GVSS share round (per-coefficient batching over
// destinations), the echo round's n³ row cross-evaluations, and the
// recover round's candidate verification (SecretDecoder). tab holds one
// n-wide column per coefficient, so a kernel pass is a short
// matrix-vector product over GF(2^31−1) and the beat's cost is bounded
// by how many multiply-adds per cycle this file can sustain.
//
// The kernels share two Mersenne-31 lazy-reduction budgets (P = 2^31−1,
// fold(v) = (v&P) + (v>>31), congruent mod P for any uint64):
//
//   - pair budget: a folded accumulator is < 2^33 (fold of any v < 2^63),
//     and two products of canonical elements are ≤ 2(P−1)² = 2^63 − 2^34
//     + 8, so acc + two products < 2^63 and one fold per coefficient
//     PAIR keeps the chain exact.
//   - quad budget: fold accepts any uint64 and returns < 2^33 + 2^31, and
//     four products are ≤ 4(P−1)² = 2^64 − 2^35 + 16, so acc + four
//     products < 2^64 (no uint64 overflow) and one fold per coefficient
//     QUAD suffices. The wider window halves the fold overhead; the
//     final Reduce canonicalizes from the full uint64 range either way.
//
// There is one kernel per platform, chosen once at init: the AVX2
// assembly kernel where the CPU and OS support it (kernels_amd64.go),
// the portable quad8 Go kernel everywhere else. The scalar reference
// stays as the oracle: the kernel tests and FuzzEvalColumns call every
// implementation directly against it, and UseScalarRefs swaps it (with
// the sweep references) in for whole-protocol differential runs. All
// implementations compute the identical canonical result — exact
// modular arithmetic — so the choice changes speed, never output.

// evalColumnsImpl is the implementation evalColumns dispatches to (set
// at init by UseScalarRefs).
var evalColumnsImpl func(dst, coeffs, tab []Elem, n int)

// scalarRefs records the UseScalarRefs setting in force.
var scalarRefs bool

func init() { UseScalarRefs(false) }

// UseScalarRefs installs the scalar reference implementations of
// evalColumns and of all five sweep primitives together (on), or the
// set chosen for this CPU (off) — the portable quad8 kernel and scalar
// sweeps, overridden by installArchKernels where the CPU allows — and
// returns the previous setting so callers can restore it. Off is the
// default. It is a test hook for differential runs of the whole
// protocol stack: every implementation computes exact results, so the
// setting changes speed, never output. Call it only while no
// evaluations or sweeps run.
func UseScalarRefs(on bool) (prev bool) {
	prev, scalarRefs = scalarRefs, on
	evalColumnsImpl = evalColumnsQuad8
	accumNeqImpl, sweepTallyImpl, accumBoolImpl, countBoolImpl, rangeOrImpl =
		accumNeqRef, sweepTallyRef, accumBoolRef, countBoolRef, rangeOrRef
	if on {
		evalColumnsImpl = evalColumnsRef
	} else {
		installArchKernels()
	}
	return prev
}

// evalColumns dispatches to the installed kernel. See the file comment
// for the contract; dst, coeffs and tab must not alias.
func evalColumns(dst, coeffs, tab []Elem, n int) {
	evalColumnsImpl(dst, coeffs, tab, n)
}

// evalColumnsRef is the scalar reference implementation — one canonical
// MulAdd per term, no lazy accumulation, no unrolling. It is the oracle
// the wide kernels are differentially tested and fuzzed against, and
// UseScalarRefs installs it so whole-protocol runs can be replayed on it.
func evalColumnsRef(dst, coeffs, tab []Elem, n int) {
	for j := 0; j < n; j++ {
		var acc Elem
		for k := range coeffs {
			acc = MulAdd(acc, coeffs[k], tab[k*n+j])
		}
		dst[j] = acc
	}
}

// evalColumnsTail is the shared scalar remainder: points j..n−1 one at a
// time, coefficients in pairs under the pair budget. Every block kernel
// delegates its sub-block leftovers here, so the pair-fold logic exists
// once.
func evalColumnsTail(dst, coeffs, tab []Elem, n, j int) {
	for ; j < n; j++ {
		var acc uint64
		k := 0
		for ; k+2 <= len(coeffs); k += 2 {
			acc = fold(acc + uint64(coeffs[k])*uint64(tab[k*n+j]) + uint64(coeffs[k+1])*uint64(tab[(k+1)*n+j]))
		}
		if k < len(coeffs) {
			acc = fold(acc + uint64(coeffs[k])*uint64(tab[k*n+j]))
		}
		dst[j] = reduceWide(acc)
	}
}

// evalBlock4 computes one 4-point block at offset j under the pair
// budget: four independent accumulators whose fold chains overlap. The
// 8-point block kernels (quad8, AVX2) use it for their 4-point leftover.
func evalBlock4(dst, coeffs, tab []Elem, n, j int) {
	var a0, a1, a2, a3 uint64
	k := 0
	for ; k+2 <= len(coeffs); k += 2 {
		c0, c1 := uint64(coeffs[k]), uint64(coeffs[k+1])
		t0 := tab[k*n+j : k*n+j+4 : k*n+j+4]
		t1 := tab[(k+1)*n+j : (k+1)*n+j+4 : (k+1)*n+j+4]
		a0 = fold(a0 + c0*uint64(t0[0]) + c1*uint64(t1[0]))
		a1 = fold(a1 + c0*uint64(t0[1]) + c1*uint64(t1[1]))
		a2 = fold(a2 + c0*uint64(t0[2]) + c1*uint64(t1[2]))
		a3 = fold(a3 + c0*uint64(t0[3]) + c1*uint64(t1[3]))
	}
	if k < len(coeffs) {
		c := uint64(coeffs[k])
		t0 := tab[k*n+j : k*n+j+4 : k*n+j+4]
		a0 = fold(a0 + c*uint64(t0[0]))
		a1 = fold(a1 + c*uint64(t0[1]))
		a2 = fold(a2 + c*uint64(t0[2]))
		a3 = fold(a3 + c*uint64(t0[3]))
	}
	dst[j] = reduceWide(a0)
	dst[j+1] = reduceWide(a1)
	dst[j+2] = reduceWide(a2)
	dst[j+3] = reduceWide(a3)
}

// evalColumnsQuad8 is the portable wide kernel: blocks of eight points
// with eight independent accumulators (their fold chains overlap across
// the CPU's multiplier pipeline), coefficients consumed in QUADS under
// the quad budget (one fold per four coefficients; the accumulator rides
// just below uint64 overflow), then a pair and a single for the
// coefficient remainder. Each accumulator maps to one SIMD lane; the
// AVX2 kernel runs this same schedule in ymm registers.
func evalColumnsQuad8(dst, coeffs, tab []Elem, n int) {
	w := len(coeffs)
	j := 0
	for ; j+8 <= n; j += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 uint64
		k := 0
		for ; k+4 <= w; k += 4 {
			c0, c1 := uint64(coeffs[k]), uint64(coeffs[k+1])
			c2, c3 := uint64(coeffs[k+2]), uint64(coeffs[k+3])
			t0 := tab[k*n+j : k*n+j+8 : k*n+j+8]
			t1 := tab[(k+1)*n+j : (k+1)*n+j+8 : (k+1)*n+j+8]
			t2 := tab[(k+2)*n+j : (k+2)*n+j+8 : (k+2)*n+j+8]
			t3 := tab[(k+3)*n+j : (k+3)*n+j+8 : (k+3)*n+j+8]
			a0 = fold(a0 + c0*uint64(t0[0]) + c1*uint64(t1[0]) + c2*uint64(t2[0]) + c3*uint64(t3[0]))
			a1 = fold(a1 + c0*uint64(t0[1]) + c1*uint64(t1[1]) + c2*uint64(t2[1]) + c3*uint64(t3[1]))
			a2 = fold(a2 + c0*uint64(t0[2]) + c1*uint64(t1[2]) + c2*uint64(t2[2]) + c3*uint64(t3[2]))
			a3 = fold(a3 + c0*uint64(t0[3]) + c1*uint64(t1[3]) + c2*uint64(t2[3]) + c3*uint64(t3[3]))
			a4 = fold(a4 + c0*uint64(t0[4]) + c1*uint64(t1[4]) + c2*uint64(t2[4]) + c3*uint64(t3[4]))
			a5 = fold(a5 + c0*uint64(t0[5]) + c1*uint64(t1[5]) + c2*uint64(t2[5]) + c3*uint64(t3[5]))
			a6 = fold(a6 + c0*uint64(t0[6]) + c1*uint64(t1[6]) + c2*uint64(t2[6]) + c3*uint64(t3[6]))
			a7 = fold(a7 + c0*uint64(t0[7]) + c1*uint64(t1[7]) + c2*uint64(t2[7]) + c3*uint64(t3[7]))
		}
		if k+2 <= w {
			c0, c1 := uint64(coeffs[k]), uint64(coeffs[k+1])
			t0 := tab[k*n+j : k*n+j+8 : k*n+j+8]
			t1 := tab[(k+1)*n+j : (k+1)*n+j+8 : (k+1)*n+j+8]
			a0 = fold(a0 + c0*uint64(t0[0]) + c1*uint64(t1[0]))
			a1 = fold(a1 + c0*uint64(t0[1]) + c1*uint64(t1[1]))
			a2 = fold(a2 + c0*uint64(t0[2]) + c1*uint64(t1[2]))
			a3 = fold(a3 + c0*uint64(t0[3]) + c1*uint64(t1[3]))
			a4 = fold(a4 + c0*uint64(t0[4]) + c1*uint64(t1[4]))
			a5 = fold(a5 + c0*uint64(t0[5]) + c1*uint64(t1[5]))
			a6 = fold(a6 + c0*uint64(t0[6]) + c1*uint64(t1[6]))
			a7 = fold(a7 + c0*uint64(t0[7]) + c1*uint64(t1[7]))
			k += 2
		}
		if k < w {
			c := uint64(coeffs[k])
			t0 := tab[k*n+j : k*n+j+8 : k*n+j+8]
			a0 = fold(a0 + c*uint64(t0[0]))
			a1 = fold(a1 + c*uint64(t0[1]))
			a2 = fold(a2 + c*uint64(t0[2]))
			a3 = fold(a3 + c*uint64(t0[3]))
			a4 = fold(a4 + c*uint64(t0[4]))
			a5 = fold(a5 + c*uint64(t0[5]))
			a6 = fold(a6 + c*uint64(t0[6]))
			a7 = fold(a7 + c*uint64(t0[7]))
		}
		dst[j] = reduceWide(a0)
		dst[j+1] = reduceWide(a1)
		dst[j+2] = reduceWide(a2)
		dst[j+3] = reduceWide(a3)
		dst[j+4] = reduceWide(a4)
		dst[j+5] = reduceWide(a5)
		dst[j+6] = reduceWide(a6)
		dst[j+7] = reduceWide(a7)
	}
	if j+4 <= n {
		evalBlock4(dst, coeffs, tab, n, j)
		j += 4
	}
	evalColumnsTail(dst, coeffs, tab, n, j)
}
