//go:build amd64

package field

// AVX2 kernel and sweeps, installed at init when the CPU has them. Elem
// values are canonical (< 2^31) in 64-bit words, which is exactly the
// shape VPMULUDQ wants: the low dword of each 64-bit lane times the low
// dword of the broadcast coefficient, a full 62-bit product per lane,
// four lanes per ymm register. The assembly kernel mirrors
// evalColumnsQuad8's schedule — two ymm accumulators (8 points),
// coefficients consumed in quads under the quad budget — so the
// portable Go kernel doubles as its readable specification.
//
// Feature detection is hand-rolled (this module has no dependencies):
// AVX2 needs CPUID.7.0:EBX bit 5 plus OS-enabled ymm state
// (CPUID.1:ECX OSXSAVE bit 27 and AVX bit 28, XGETBV XCR0 bits 1-2).

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked before calling).
func xgetbv() (eax, edx uint32)

// evalColumnsAVX2Blocks processes the full 8-point blocks j in
// [0, n&^7). Implemented in kernels_amd64.s.
func evalColumnsAVX2Blocks(dst, coeffs, tab []Elem, n int)

var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state OS-saved
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// evalColumnsAVX2 runs the assembly kernel over the 8-point blocks and
// delegates the remainder to the shared scalar helpers.
func evalColumnsAVX2(dst, coeffs, tab []Elem, n int) {
	j := n &^ 7
	if j > 0 {
		evalColumnsAVX2Blocks(dst, coeffs, tab, n)
	}
	if j+4 <= n {
		evalBlock4(dst, coeffs, tab, n, j)
		j += 4
	}
	evalColumnsTail(dst, coeffs, tab, n, j)
}

// installArchKernels installs the AVX2 kernel and sweeps over the
// portable set when the CPU and OS support them.
func installArchKernels() {
	if !haveAVX2 {
		return
	}
	evalColumnsImpl = evalColumnsAVX2
	accumNeqImpl, sweepTallyImpl, accumBoolImpl, countBoolImpl, rangeOrImpl =
		accumNeqAVX2, sweepTallyAVX2, accumBoolAVX2, countBoolAVX2, rangeOrAVX2
}
