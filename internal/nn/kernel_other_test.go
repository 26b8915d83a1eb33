//go:build !amd64

package nn

// forceScalarMul runs fn; off amd64 the plain-Go kernels are the only
// path.
func forceScalarMul(fn func()) { fn() }
