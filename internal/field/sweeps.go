package field

// Fused elementwise sweep primitives. The protocol's delivery paths are
// dominated by three loop shapes that are not polynomial evaluation but
// are just as SIMD-shaped: counting positions where two streams differ
// (suffix verification tallies), a combined range-check + masked
// equality tally (the echo agreement sweep), and boolean tallies (vote
// counting). Each has a scalar reference implementation here — the
// branch-free idioms the callers previously inlined — and an AVX2
// variant (kernels_amd64.s) installed over the function pointers at
// init when the CPU supports it (see UseScalarRefs). The references
// double as differential oracles: the tests and fuzzers in
// sweeps_test.go pin the installed implementation bit-for-bit against
// them.
//
// All variants compute exact integer results (no lazy reduction is
// involved), so installed and reference implementations agree exactly,
// and callers' protocol trajectories are identical across them.

// The installed sweep implementations (set at init by UseScalarRefs).
var (
	accumNeqImpl   func(bad []uint64, a, b []Elem)
	sweepTallyImpl func(agree []uint64, ev, vals []Elem, has []bool, dirBits uint64) (hi, borrow uint64)
	accumBoolImpl  func(cnt []uint64, bs []bool)
	countBoolImpl  func(bs []bool) uint64
	rangeOrImpl    func(es []Elem) (hi, borrow uint64)
)

// AccumNeq adds 1 to bad[i] at every position where a[i] != b[i].
// bad and b must be at least as long as a.
func AccumNeq(bad []uint64, a, b []Elem) {
	if len(bad) < len(a) || len(b) < len(a) {
		panic("field: AccumNeq length mismatch")
	}
	accumNeqImpl(bad, a, b)
}

func accumNeqRef(bad []uint64, a, b []Elem) {
	for i := range a {
		x := uint64(a[i] ^ b[i])
		bad[i] += (x | -x) >> 63 // 1 iff the elements differ
	}
}

// SweepTally is the fused validate+tally pass: one traversal of vals
// OR-accumulates the canonical-range mask (hi collects high bits,
// borrow collects underflows of (P-1)-v; vals are all canonical iff
// hi>>31 == 0 && borrow>>63 == 0) while adding ±1 to agree[i] at every
// position where vals[i] == ev[i] and has[i] — +1 normally, -1 when
// negate is set (the caller's rollback re-sweep). The adds wrap in
// uint64, so a rollback subtracts exactly what the matching positive
// sweep added. ev, agree and has must be at least as long as vals.
func SweepTally(agree []uint64, ev, vals []Elem, has []bool, negate bool) (hi, borrow uint64) {
	if len(agree) < len(vals) || len(ev) < len(vals) || len(has) < len(vals) {
		panic("field: SweepTally length mismatch")
	}
	dirBits := uint64(1)
	if negate {
		dirBits = ^uint64(0)
	}
	return sweepTallyImpl(agree, ev, vals, has, dirBits)
}

func sweepTallyRef(agree []uint64, ev, vals []Elem, has []bool, dirBits uint64) (hi, borrow uint64) {
	const max = uint64(P - 1)
	for i := range vals {
		v := uint64(vals[i])
		hi |= v
		borrow |= max - v
		x := v ^ uint64(ev[i])
		// em is all-ones iff present and equal — the same mask the AVX2
		// lanes compute — then dirBits turns it into +1 or -1.
		em := -((((x | -x) >> 63) ^ 1) & b2u(has[i]))
		agree[i] += em & dirBits
	}
	return hi, borrow
}

// RangeOr OR-accumulates the canonical-range masks of es — the
// validate half of SweepTally on its own, for callers that range-check
// a stream without tallying. All elements are canonical (< P) iff
// hi>>31 == 0 && borrow>>63 == 0: hi catches any bit at or above 2^31,
// and borrow underflows on P itself (huge values also wrap borrow, but
// hi already caught them).
func RangeOr(es []Elem) (hi, borrow uint64) {
	return rangeOrImpl(es)
}

func rangeOrRef(es []Elem) (hi, borrow uint64) {
	const max = uint64(P - 1)
	for _, e := range es {
		hi |= uint64(e)
		borrow |= max - uint64(e)
	}
	return hi, borrow
}

// AccumBool adds bs[i] (as 0/1) to cnt[i]. cnt must be at least as
// long as bs.
func AccumBool(cnt []uint64, bs []bool) {
	if len(cnt) < len(bs) {
		panic("field: AccumBool length mismatch")
	}
	accumBoolImpl(cnt, bs)
}

func accumBoolRef(cnt []uint64, bs []bool) {
	for i, b := range bs {
		cnt[i] += b2u(b)
	}
}

// CountBool returns the number of true values in bs.
func CountBool(bs []bool) uint64 {
	return countBoolImpl(bs)
}

func countBoolRef(bs []bool) uint64 {
	var c uint64
	for _, b := range bs {
		c += b2u(b)
	}
	return c
}

// b2u converts a bool to 0/1 without a branch (the compiler emits a
// zero-extending byte load).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
