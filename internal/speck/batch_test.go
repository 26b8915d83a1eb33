// Tests and microbenchmarks for the sampler's re-keying and encryption
// paths. External test package: testkit imports speck, so these cannot
// live in package speck.
package speck_test

import (
	"fmt"
	"testing"

	"repro/internal/speck"
	"repro/internal/testkit"
)

// TestExpandMatchesNew: re-keying a Cipher in place yields the same
// schedule as a fresh New, for a second key after a first expansion.
func TestExpandMatchesNew(t *testing.T) {
	testkit.Check(t, "speck-expand-vs-new", testkit.SpeckCases(), func(c testkit.SpeckCase) error {
		var ci speck.Cipher
		ci.Expand([4]uint16{0xdead, 0xbeef, 0x0123, 0x4567}) // dirty the schedule first
		ci.Expand(c.Key)
		want := speck.New(c.Key)
		for i := 0; i < speck.Rounds; i++ {
			if ci.RoundKey(i) != want.RoundKey(i) {
				return fmt.Errorf("round key %d: Expand %04x vs New %04x", i, ci.RoundKey(i), want.RoundKey(i))
			}
		}
		return nil
	})
}

// BenchmarkSpeckEncrypt compares the one-at-a-time sampler inner loop
// (key expansion + two EncryptRounds calls at the 7-round regime)
// against the bitsliced kernel on the same per-block work.
func BenchmarkSpeckEncrypt(b *testing.B) {
	key := [4]uint16{0x1918, 0x1110, 0x0908, 0x0100}
	p := speck.Block{X: 0x6574, Y: 0x694c}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		var sink speck.Block
		for i := 0; i < b.N; i++ {
			var c speck.Cipher
			c.Expand(key)
			sink = c.EncryptRounds(p, 7).XOR(c.EncryptRounds(p.XOR(speck.GohrDelta), 7))
		}
		_ = sink
	})
	// planes128 does the same per-block work — fresh key schedule, two
	// 7-round encryptions, output difference — for the production
	// sampler's 128 lanes per call, AVX2 interleaved planes where
	// available. The kernel clobbers its planes, so each op starts from
	// a fresh copy; 256 encryptions per op.
	b.Run("planes128", func(b *testing.B) {
		b.ReportAllocs()
		var keys [128][4]uint16
		var blocks [128]speck.Block
		for l := range keys {
			keys[l] = [4]uint16{key[0] + uint16(l), key[1], key[2], key[3]}
			blocks[l] = speck.Block{X: p.X + uint16(l), Y: p.Y}
		}
		k0, k1, p0, p1 := planes128(&keys, &blocks)
		var out [128]uint32
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m0, m1, mp0, mp1 := k0, k1, p0, p1
			speck.EncryptDiffPlanes128(&m0, &m1, &mp0, &mp1, speck.GohrDelta, 7, &out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/block")
	})
}
