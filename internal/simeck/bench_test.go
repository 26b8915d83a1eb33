package simeck_test

import (
	"testing"

	"repro/internal/simeck"
)

// BenchmarkSimeckEncrypt measures the sampler's hot loop at the
// registered 8-round depth — re-key from scratch, then two scalar
// encryptions — against the ×64 bitsliced single-key and related-key
// kernels.
func BenchmarkSimeckEncrypt(b *testing.B) {
	key := simeck.Key{0x1918, 0x1110, 0x0908, 0x0100}
	p := simeck.Block{X: 0x6565, Y: 0x6877}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		var sink simeck.Block
		for i := 0; i < b.N; i++ {
			var c simeck.Cipher
			c.Expand(key)
			sink = c.EncryptRounds(p, 8).XOR(c.EncryptRounds(p.XOR(simeck.NDDelta), 8))
		}
		_ = sink
	})
	// The ×64 bitsliced kernels amortise schedule and rounds across 64
	// lanes; ns/op here covers 64 difference pairs, so divide by 64 to
	// compare against the scalar loop above.
	var keys [64]uint64
	var pts [64]uint32
	for l := 0; l < 64; l++ {
		keys[l] = simeck.PackKeyRow(key) ^ uint64(l)*0x9e3779b97f4a7c15
		pts[l] = simeck.PackBlockRow(p) ^ uint32(l)*0x85ebca6b
	}
	var out [64]uint32
	b.Run("sliced-x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simeck.EncryptDiffSliced64(&keys, &pts, simeck.NDDelta, 8, &out)
		}
		b.ReportMetric(64, "pairs/op")
	})
	b.Run("sliced-cross-key-x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simeck.EncryptCrossDiffSliced64(&keys, simeck.LuKeyDelta, &pts, simeck.NDDelta, 12, &out)
		}
		b.ReportMetric(64, "pairs/op")
	})
}
