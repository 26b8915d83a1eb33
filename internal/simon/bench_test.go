package simon_test

import (
	"testing"

	"repro/internal/simon"
)

// BenchmarkSimonEncrypt measures the sampler's hot loop at the
// registered 8-round depth — re-key from scratch, then two scalar
// encryptions — against the ×64 bitsliced single-key and related-key
// kernels.
func BenchmarkSimonEncrypt(b *testing.B) {
	key := simon.Key{0x1918, 0x1110, 0x0908, 0x0100}
	p := simon.Block{X: 0x6565, Y: 0x6877}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		var sink simon.Block
		for i := 0; i < b.N; i++ {
			var c simon.Cipher
			c.Expand(key)
			sink = c.EncryptRounds(p, 8).XOR(c.EncryptRounds(p.XOR(simon.NDDelta), 8))
		}
		_ = sink
	})
	// The ×64 bitsliced kernels amortise schedule and rounds across 64
	// lanes; ns/op here covers 64 difference pairs, so divide by 64 to
	// compare against the scalar loop above.
	var keys [64]uint64
	var pts [64]uint32
	for l := 0; l < 64; l++ {
		keys[l] = simon.PackKeyRow(key) ^ uint64(l)*0x9e3779b97f4a7c15
		pts[l] = simon.PackBlockRow(p) ^ uint32(l)*0x85ebca6b
	}
	var out [64]uint32
	b.Run("sliced-x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simon.EncryptDiffSliced64(&keys, &pts, simon.NDDelta, 8, &out)
		}
		b.ReportMetric(64, "pairs/op")
	})
	b.Run("sliced-cross-key-x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simon.EncryptCrossDiffSliced64(&keys, simon.LuKeyDelta, &pts, simon.NDDelta, 10, &out)
		}
		b.ReportMetric(64, "pairs/op")
	})
}
