//go:build amd64

package field

// AVX2 sweep primitives (kernels_amd64.s), installed by
// installArchKernels: the block routines process four 64-bit lanes per
// iteration over the len&^3 prefix; these wrappers finish the remainder
// with the scalar reference idioms so the combined result is bit-for-bit
// the reference's.

func accumNeqBlocks(bad []uint64, a, b []Elem, n4 int)

func sweepTallyBlocks(agree []uint64, ev, vals []Elem, has []bool, dirBits uint64, n4 int) (hi, borrow uint64)

func accumBoolBlocks(cnt []uint64, bs []bool, n4 int)

func rangeOrBlocks(es []Elem, n4 int) (hi, borrow uint64)

func countBoolBlocks(bs []bool, n4 int) uint64

func accumNeqAVX2(bad []uint64, a, b []Elem) {
	n4 := len(a) &^ 3
	if n4 > 0 {
		accumNeqBlocks(bad, a, b, n4)
	}
	for i := n4; i < len(a); i++ {
		x := uint64(a[i] ^ b[i])
		bad[i] += (x | -x) >> 63
	}
}

func sweepTallyAVX2(agree []uint64, ev, vals []Elem, has []bool, dirBits uint64) (hi, borrow uint64) {
	n4 := len(vals) &^ 3
	if n4 > 0 {
		hi, borrow = sweepTallyBlocks(agree, ev, vals, has, dirBits, n4)
	}
	const max = uint64(P - 1)
	for i := n4; i < len(vals); i++ {
		v := uint64(vals[i])
		hi |= v
		borrow |= max - v
		x := v ^ uint64(ev[i])
		em := -((((x | -x) >> 63) ^ 1) & b2u(has[i]))
		agree[i] += em & dirBits
	}
	return hi, borrow
}

func rangeOrAVX2(es []Elem) (hi, borrow uint64) {
	n4 := len(es) &^ 3
	if n4 > 0 {
		hi, borrow = rangeOrBlocks(es, n4)
	}
	const max = uint64(P - 1)
	for i := n4; i < len(es); i++ {
		v := uint64(es[i])
		hi |= v
		borrow |= max - v
	}
	return hi, borrow
}

func accumBoolAVX2(cnt []uint64, bs []bool) {
	n4 := len(bs) &^ 3
	if n4 > 0 {
		accumBoolBlocks(cnt, bs, n4)
	}
	for i := n4; i < len(bs); i++ {
		cnt[i] += b2u(bs[i])
	}
}

func countBoolAVX2(bs []bool) uint64 {
	n4 := len(bs) &^ 3
	var c uint64
	if n4 > 0 {
		c = countBoolBlocks(bs, n4)
	}
	for i := n4; i < len(bs); i++ {
		c += b2u(bs[i])
	}
	return c
}
