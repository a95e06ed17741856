//go:build !amd64

package field

// installArchKernels has no arch-specific kernels to install on this
// GOARCH: the portable quad8 kernel and the scalar sweeps stay.
func installArchKernels() {}
