package chaskey_test

import (
	"testing"

	"repro/internal/chaskey"
)

// BenchmarkChaskeyPermute measures the sampler's hot loop — two scalar
// permutations at the registered 3-round depth — against the ×64 sliced
// kernel at 3 rounds and at the full 8-round permutation.
func BenchmarkChaskeyPermute(b *testing.B) {
	v := chaskey.State{0x833d3433, 0x009f389f, 0x2398e64f, 0x417acf39}
	b.Run("scalar-3r", func(b *testing.B) {
		b.ReportAllocs()
		var sink chaskey.State
		for i := 0; i < b.N; i++ {
			sink = chaskey.Permute(v, 3).XOR(chaskey.Permute(v.XOR(chaskey.NDDelta), 3))
		}
		_ = sink
	})
	// The ×64 sliced kernel amortises rounds across 64 lanes; ns/op here
	// covers 64 difference pairs, so divide by 64 to compare against the
	// scalar loop above. It reads raw draw columns (state word in the top
	// half) and leaves them intact.
	var cols [4 * chaskey.SlicedLanes]uint64
	for l := 0; l < 64; l++ {
		s := v
		s[0] ^= uint32(l) * 0x85ebca6b
		for w, x := range s {
			cols[w*64+l] = uint64(x) << 32
		}
	}
	var outLo, outHi [64]uint64
	b.Run("drawcols-x64-3r", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chaskey.PermuteDiffDrawCols64(&cols, chaskey.NDDelta, 3, &outLo, &outHi)
		}
		b.ReportMetric(64, "pairs/op")
	})
	b.Run("drawcols-x64-8r", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chaskey.PermuteDiffDrawCols64(&cols, chaskey.NDDelta, chaskey.Rounds, &outLo, &outHi)
		}
		b.ReportMetric(64, "pairs/op")
	})
}
