// Tests for the bitsliced ×128 SPECK kernel: every claim of bit-identity
// with the scalar path is checked lane by lane, across random keys and
// every round count, so the dataset fast path can trust
// EncryptDiffPlanes128 blindly.
package speck_test

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/speck"
	"repro/internal/testkit"
)

// sliced128Case is one 128-lane kernel input: per-lane keys and
// plaintexts plus a shared input difference and round count.
type sliced128Case struct {
	Keys   [128][4]uint16
	Blocks [128]speck.Block
	Delta  speck.Block
	Rounds int
}

// sliced128Cases generates random 128-lane inputs with input
// differences from delta; shrinking lowers the round count and zeroes
// lanes in blocks of 16.
func sliced128Cases(delta func(r *prng.Rand) speck.Block) testkit.Gen[sliced128Case] {
	return testkit.Gen[sliced128Case]{
		Name: "128-lane speck case",
		Generate: func(r *prng.Rand) sliced128Case {
			var c sliced128Case
			for l := range c.Keys {
				for w := range c.Keys[l] {
					c.Keys[l][w] = r.Uint16()
				}
				c.Blocks[l] = speck.Block{X: r.Uint16(), Y: r.Uint16()}
			}
			c.Rounds = int(r.Uint64() % (speck.Rounds + 1))
			c.Delta = delta(r)
			return c
		},
		Shrink: func(c sliced128Case) []sliced128Case {
			var out []sliced128Case
			if c.Rounds > 0 {
				d := c
				d.Rounds--
				out = append(out, d)
			}
			for l := 0; l < 128; l += 16 {
				if c.Keys[l] != ([4]uint16{}) || c.Blocks[l] != (speck.Block{}) {
					d := c
					d.Keys[l] = [4]uint16{}
					d.Blocks[l] = speck.Block{}
					out = append(out, d)
				}
			}
			return out
		},
		Format: func(c sliced128Case) string {
			return fmt.Sprintf("rounds=%d delta=%v lane0 key=%04x block=%v", c.Rounds, c.Delta, c.Keys[0], c.Blocks[0])
		},
	}
}

// planes128 builds EncryptDiffPlanes128's inputs: each lane's key
// packed as words 0..3 in 16-bit fields and its block as X ‖ Y<<16,
// then transposed per 64-lane group.
func planes128(keys *[128][4]uint16, blocks *[128]speck.Block) (k0, k1 [64]uint64, p0, p1 [32]uint64) {
	var pt [128]uint32
	for l, k := range keys {
		row := uint64(k[0]) | uint64(k[1])<<16 | uint64(k[2])<<32 | uint64(k[3])<<48
		if l < 64 {
			k0[l] = row
		} else {
			k1[l-64] = row
		}
		pt[l] = uint32(blocks[l].X) | uint32(blocks[l].Y)<<16
	}
	bits.Transpose64(&k0)
	bits.Transpose64(&k1)
	bits.TransposeRows32((*[64]uint32)(pt[0:64]), &p0)
	bits.TransposeRows32((*[64]uint32)(pt[64:128]), &p1)
	return
}

// matchesScalar runs the ×128 kernel (AVX2 where available, two
// portable halves otherwise) on c and compares every lane with two
// scalar EncryptRounds calls.
func matchesScalar(c sliced128Case) error {
	k0, k1, p0, p1 := planes128(&c.Keys, &c.Blocks)
	var out [128]uint32
	speck.EncryptDiffPlanes128(&k0, &k1, &p0, &p1, c.Delta, c.Rounds, &out)
	for l := 0; l < 128; l++ {
		cipher := speck.New(c.Keys[l])
		d := cipher.EncryptRounds(c.Blocks[l], c.Rounds).XOR(
			cipher.EncryptRounds(c.Blocks[l].XOR(c.Delta), c.Rounds))
		want := uint32(d.X) | uint32(d.Y)<<16
		if out[l] != want {
			return fmt.Errorf("lane %d rounds %d: got %#08x want %#08x", l, c.Rounds, out[l], want)
		}
	}
	return nil
}

// TestEncryptDiffSliced128MatchesScalar: the kernel agrees lane for
// lane with the scalar oracle for random differences and every round
// count, including 0.
func TestEncryptDiffSliced128MatchesScalar(t *testing.T) {
	testkit.Check(t, "speck-sliced128-vs-scalar", sliced128Cases(func(r *prng.Rand) speck.Block {
		return speck.Block{X: r.Uint16(), Y: r.Uint16()}
	}), matchesScalar)
}

// TestEncryptDiffPlanes128: the kernel agrees with the oracle on
// single-bit differences, the shape of GohrDelta that the registered
// scenarios sample with and that uniformly random differences almost
// never take.
func TestEncryptDiffPlanes128(t *testing.T) {
	testkit.Check(t, "speck-sliced128-sparse-diff", sliced128Cases(func(r *prng.Rand) speck.Block {
		d := uint32(1) << (r.Uint64() % 32)
		return speck.Block{X: uint16(d), Y: uint16(d >> 16)}
	}), matchesScalar)
}

// rejects reports whether EncryptDiffPlanes128 panics on n rounds.
func rejects(n int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	var k0, k1 [64]uint64
	var p0, p1 [32]uint64
	var out [128]uint32
	speck.EncryptDiffPlanes128(&k0, &k1, &p0, &p1, speck.GohrDelta, n, &out)
	return false
}

// TestEncryptDiffSliced128RangeCheck: the kernel rejects round counts
// outside [0, 22].
func TestEncryptDiffSliced128RangeCheck(t *testing.T) {
	for _, n := range []int{-1, speck.Rounds + 1} {
		if !rejects(n) {
			t.Errorf("EncryptDiffPlanes128 accepted %d rounds", n)
		}
	}
}

// TestSlicedEncryptRangeCheck: both ends of [0, 22] are accepted.
func TestSlicedEncryptRangeCheck(t *testing.T) {
	for _, n := range []int{0, speck.Rounds} {
		if rejects(n) {
			t.Errorf("EncryptDiffPlanes128 rejected %d rounds", n)
		}
	}
}
