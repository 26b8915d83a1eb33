//go:build amd64

package bits

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/prng"
)

// The AVX2 and scalar transposes must be interchangeable: the package
// picks one at init and every caller assumes the result is identical.

func TestTranspose64AVX2MatchesScalar(t *testing.T) {
	if !cpu.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := prng.New(0x7a3)
	for trial := 0; trial < 256; trial++ {
		var m [64]uint64
		for i := range m {
			m[i] = r.Uint64()
		}
		want := m
		transpose64Scalar(&want)
		got := m
		transpose64AVX2(&got)
		if got != want {
			t.Fatalf("trial %d: AVX2 transpose diverges from scalar", trial)
		}
	}
}

func TestTransposeStagesAVX2MatchesScalar(t *testing.T) {
	if !cpu.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := prng.New(0x7a4)
	for trial := 0; trial < 256; trial++ {
		var m [32]uint64
		for i := range m {
			m[i] = r.Uint64()
		}
		want := m
		transposeStages16to1(&want)
		got := m
		transposeStagesAVX2(&got)
		if got != want {
			t.Fatalf("trial %d: AVX2 stages diverge from scalar", trial)
		}
	}
}
