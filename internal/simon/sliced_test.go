// Tests for the bitsliced ×64 SIMON kernel: bit-identity with the
// scalar path is checked lane by lane, across random keys, random
// plaintext and key differences, and every round count, so the dataset
// fast path can trust EncryptCrossDiffPlanes64 blindly.
package simon_test

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/simon"
	"repro/internal/testkit"
)

// slicedCase is 64 independent (key, plaintext) lanes plus a round
// count and a (δ, ∇) difference pair — one full kernel invocation.
type slicedCase struct {
	Keys   [64]simon.Key
	Blocks [64]simon.Block
	Delta  simon.Block
	KeyD   simon.Key
	Rounds int
}

// slicedCases generates random 64-lane inputs whose (δ, ∇) pair comes
// from diffs. Shrinking zeroes one lane at a time so a failure reports
// the minimal set of live lanes.
func slicedCases(diffs func(r *prng.Rand) (simon.Block, simon.Key)) testkit.Gen[slicedCase] {
	return testkit.Gen[slicedCase]{
		Name: "64-lane simon case",
		Generate: func(r *prng.Rand) slicedCase {
			var c slicedCase
			for l := range c.Keys {
				for w := range c.Keys[l] {
					c.Keys[l][w] = r.Uint16()
				}
				c.Blocks[l] = simon.Block{X: r.Uint16(), Y: r.Uint16()}
			}
			c.Delta, c.KeyD = diffs(r)
			c.Rounds = int(r.Uint64() % (simon.Rounds + 1))
			return c
		},
		Shrink: func(c slicedCase) []slicedCase {
			var out []slicedCase
			if c.Rounds > 0 {
				d := c
				d.Rounds--
				out = append(out, d)
			}
			if !c.KeyD.IsZero() {
				d := c
				d.KeyD = simon.Key{}
				out = append(out, d)
			}
			for l := range c.Keys {
				if c.Keys[l] != (simon.Key{}) || c.Blocks[l] != (simon.Block{}) {
					d := c
					d.Keys[l] = simon.Key{}
					d.Blocks[l] = simon.Block{}
					out = append(out, d)
				}
			}
			return out
		},
		Format: func(c slicedCase) string {
			return fmt.Sprintf("rounds=%d delta=%v keyD=%04x lane0 key=%04x block=%v",
				c.Rounds, c.Delta, c.KeyD, c.Keys[0], c.Blocks[0])
		},
	}
}

// randomDelta is a uniformly random plaintext difference.
func randomDelta(r *prng.Rand) simon.Block {
	return simon.Block{X: r.Uint16(), Y: r.Uint16()}
}

// randomKeyD is a uniformly random nonzero key difference.
func randomKeyD(r *prng.Rand) simon.Key {
	k := simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	if k.IsZero() {
		k[3] = 1
	}
	return k
}

// scalarDiff is the oracle: the per-lane output difference of two
// scalar EncryptRounds calls under K and K ⊕ keyD, in the packed
// X ‖ Y<<16 row layout.
func scalarDiff(k simon.Key, p simon.Block, delta simon.Block, keyD simon.Key, rounds int) uint32 {
	var ca, cb simon.Cipher
	ca.Expand(k)
	cb.Expand(k.XOR(keyD))
	d := ca.EncryptRounds(p, rounds).XOR(cb.EncryptRounds(p.XOR(delta), rounds))
	return uint32(d.X) | uint32(d.Y)<<16
}

// planes builds EncryptCrossDiffPlanes64's inputs: each lane's key
// packed as words 0..3 in 16-bit fields and its block as X ‖ Y<<16,
// then transposed.
func planes(keys *[64]simon.Key, blocks *[64]simon.Block) (kp [64]uint64, pp [32]uint64) {
	var pt [64]uint32
	for l, k := range keys {
		kp[l] = uint64(k[0]) | uint64(k[1])<<16 | uint64(k[2])<<32 | uint64(k[3])<<48
		pt[l] = uint32(blocks[l].X) | uint32(blocks[l].Y)<<16
	}
	bits.Transpose64(&kp)
	bits.TransposeRows32(&pt, &pp)
	return
}

// matchesScalar runs the kernel on c and compares every lane with the
// scalar oracle under K and K ⊕ ∇.
func matchesScalar(c slicedCase) error {
	kp, pp := planes(&c.Keys, &c.Blocks)
	var out [64]uint32
	simon.EncryptCrossDiffPlanes64(&kp, c.KeyD, &pp, c.Delta, c.Rounds, &out)
	for l := 0; l < 64; l++ {
		want := scalarDiff(c.Keys[l], c.Blocks[l], c.Delta, c.KeyD, c.Rounds)
		if out[l] != want {
			return fmt.Errorf("lane %d over %d rounds ∇=%04x: diff %08x vs scalar %08x",
				l, c.Rounds, c.KeyD, out[l], want)
		}
	}
	return nil
}

// TestEncryptDiffSliced64 pins the single-key path (∇ = 0, where both
// states share one schedule chain) lane for lane against the scalar
// oracle for random δ.
func TestEncryptDiffSliced64(t *testing.T) {
	testkit.Check(t, "simon-sliced-diff", slicedCases(func(r *prng.Rand) (simon.Block, simon.Key) {
		return randomDelta(r), simon.Key{}
	}), matchesScalar)
}

// TestEncryptCrossDiffSliced64 pins the related-key path (∇ ≠ 0, two
// full schedule chains) lane for lane against the scalar oracle for
// random δ and ∇.
func TestEncryptCrossDiffSliced64(t *testing.T) {
	testkit.Check(t, "simon-sliced-cross-diff", slicedCases(func(r *prng.Rand) (simon.Block, simon.Key) {
		return randomDelta(r), randomKeyD(r)
	}), matchesScalar)
}

// TestEncryptCrossDiffPlanes64 pins the kernel on the sparse
// differences the registered scenarios sample with — (NDDelta, 0) and
// (NDDelta, LuKeyDelta) are single bits — which uniformly random
// differences almost never are: δ is one random bit and ∇ is zero or
// one random bit.
func TestEncryptCrossDiffPlanes64(t *testing.T) {
	testkit.Check(t, "simon-sliced-sparse-diff", slicedCases(func(r *prng.Rand) (simon.Block, simon.Key) {
		d := uint32(1) << (r.Uint64() % 32)
		var k simon.Key
		if r.Uint64()%2 == 1 {
			b := r.Uint64() % 64
			k[b/16] = 1 << (b % 16)
		}
		return simon.Block{X: uint16(d), Y: uint16(d >> 16)}, k
	}), matchesScalar)
}

// rejects reports whether EncryptCrossDiffPlanes64 panics on n rounds
// under key difference keyD.
func rejects(keyD simon.Key, n int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	var keyPlanes [64]uint64
	var ptPlanes [32]uint64
	var out [64]uint32
	simon.EncryptCrossDiffPlanes64(&keyPlanes, keyD, &ptPlanes, simon.NDDelta, n, &out)
	return false
}

// TestEncryptDiffSliced64RangeCheck: the single-key path rejects round
// counts outside [0, Rounds].
func TestEncryptDiffSliced64RangeCheck(t *testing.T) {
	for _, n := range []int{-1, simon.Rounds + 1} {
		if !rejects(simon.Key{}, n) {
			t.Errorf("EncryptCrossDiffPlanes64 accepted %d rounds at ∇ = 0", n)
		}
	}
}

// TestEncryptCrossDiffSliced64RangeCheck: so does the related-key path.
func TestEncryptCrossDiffSliced64RangeCheck(t *testing.T) {
	for _, n := range []int{-1, simon.Rounds + 1} {
		if !rejects(simon.LuKeyDelta, n) {
			t.Errorf("EncryptCrossDiffPlanes64 accepted %d rounds at ∇ = LuKeyDelta", n)
		}
	}
}

// TestEncryptCrossDiffPlanes64RangeCheck: both ends of [0, Rounds] are
// accepted on both paths.
func TestEncryptCrossDiffPlanes64RangeCheck(t *testing.T) {
	for _, keyD := range []simon.Key{{}, simon.LuKeyDelta} {
		for _, n := range []int{0, simon.Rounds} {
			if rejects(keyD, n) {
				t.Errorf("EncryptCrossDiffPlanes64 rejected %d rounds at ∇ = %04x", n, keyD)
			}
		}
	}
}
