package simeck_test

import (
	"testing"

	"repro/internal/simeck"
)

// BenchmarkSimeckEncrypt measures the sampler's hot loop at the
// registered 8-round depth — re-key from scratch, then two scalar
// encryptions — against the ×64 bitsliced kernel, single-key and
// related-key.
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
	// The ×64 bitsliced kernel amortises schedule and rounds across 64
	// lanes; ns/op here covers 64 difference pairs, so divide by 64 to
	// compare against the scalar loop above. It clobbers its planes, so
	// each op starts from a fresh copy.
	var keys [64]simeck.Key
	var blocks [64]simeck.Block
	for l := range keys {
		keys[l] = simeck.Key{key[0] ^ uint16(l), key[1], key[2], key[3] + uint16(l)*0x9e37}
		blocks[l] = simeck.Block{X: p.X ^ uint16(l)*0xca6b, Y: p.Y}
	}
	kp, pp := planes(&keys, &blocks)
	var out [64]uint32
	b.Run("planes-x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, pt := kp, pp
			simeck.EncryptCrossDiffPlanes64(&k, simeck.Key{}, &pt, simeck.NDDelta, 8, &out)
		}
		b.ReportMetric(64, "pairs/op")
	})
	b.Run("planes-cross-key-x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, pt := kp, pp
			simeck.EncryptCrossDiffPlanes64(&k, simeck.LuKeyDelta, &pt, simeck.NDDelta, 12, &out)
		}
		b.ReportMetric(64, "pairs/op")
	})
}
