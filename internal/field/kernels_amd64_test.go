//go:build amd64

package field

// archEvalKernels lists the AVX2 kernel when the CPU and OS support it.
func archEvalKernels() []evalKernel {
	if !haveAVX2 {
		return nil
	}
	return []evalKernel{{"avx2", evalColumnsAVX2}}
}
