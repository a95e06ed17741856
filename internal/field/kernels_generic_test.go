//go:build !amd64

package field

// archEvalKernels lists no arch kernels on this GOARCH.
func archEvalKernels() []evalKernel { return nil }
