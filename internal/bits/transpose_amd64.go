//go:build amd64

package bits

import "repro/internal/cpu"

// AVX2 dispatch for the transpose kernels. The implementations are in
// transpose_amd64.s; useTransposeAVX2 is a variable rather than a call
// to cpu.HasAVX2 so tests can force the scalar path and check both
// implementations agree on the same machine.

var useTransposeAVX2 = cpu.HasAVX2()

// transpose64AVX2 is Transpose64 with AVX2 butterflies (transpose_amd64.s).
//
//go:noescape
func transpose64AVX2(m *[64]uint64)

// transposeStagesAVX2 is transposeStages16to1 with AVX2 butterflies.
//
//go:noescape
func transposeStagesAVX2(m *[32]uint64)

func transpose64(m *[64]uint64) {
	if useTransposeAVX2 {
		transpose64AVX2(m)
		return
	}
	transpose64Scalar(m)
}

func transposeStages(m *[32]uint64) {
	if useTransposeAVX2 {
		transposeStagesAVX2(m)
		return
	}
	transposeStages16to1(m)
}
