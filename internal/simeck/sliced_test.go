// Tests for the bitsliced ×64 SIMECK kernel: bit-identity with the
// scalar path is checked lane by lane, across random keys, random
// plaintext and key differences, and every round count, so the dataset
// fast path can trust EncryptCrossDiffPlanes64 blindly.
package simeck_test

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/simeck"
	"repro/internal/testkit"
)

// slicedCase is 64 independent (key, plaintext) lanes plus a round
// count and a (δ, ∇) difference pair — one full kernel invocation.
type slicedCase struct {
	Keys   [64]simeck.Key
	Blocks [64]simeck.Block
	Delta  simeck.Block
	KeyD   simeck.Key
	Rounds int
}

// slicedCases generates random 64-lane inputs whose (δ, ∇) pair comes
// from diffs. Shrinking zeroes one lane at a time so a failure reports
// the minimal set of live lanes.
func slicedCases(diffs func(r *prng.Rand) (simeck.Block, simeck.Key)) testkit.Gen[slicedCase] {
	return testkit.Gen[slicedCase]{
		Name: "64-lane simeck case",
		Generate: func(r *prng.Rand) slicedCase {
			var c slicedCase
			for l := range c.Keys {
				for w := range c.Keys[l] {
					c.Keys[l][w] = r.Uint16()
				}
				c.Blocks[l] = simeck.Block{X: r.Uint16(), Y: r.Uint16()}
			}
			c.Delta, c.KeyD = diffs(r)
			c.Rounds = int(r.Uint64() % (simeck.Rounds + 1))
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
				d.KeyD = simeck.Key{}
				out = append(out, d)
			}
			for l := range c.Keys {
				if c.Keys[l] != (simeck.Key{}) || c.Blocks[l] != (simeck.Block{}) {
					d := c
					d.Keys[l] = simeck.Key{}
					d.Blocks[l] = simeck.Block{}
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
func randomDelta(r *prng.Rand) simeck.Block {
	return simeck.Block{X: r.Uint16(), Y: r.Uint16()}
}

// randomKeyD is a uniformly random nonzero key difference.
func randomKeyD(r *prng.Rand) simeck.Key {
	k := simeck.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	if k.IsZero() {
		k[3] = 1
	}
	return k
}

// scalarDiff is the oracle: the per-lane output difference of two
// scalar EncryptRounds calls under K and K ⊕ keyD, in the packed
// X ‖ Y<<16 row layout.
func scalarDiff(k simeck.Key, p simeck.Block, delta simeck.Block, keyD simeck.Key, rounds int) uint32 {
	var ca, cb simeck.Cipher
	ca.Expand(k)
	cb.Expand(k.XOR(keyD))
	d := ca.EncryptRounds(p, rounds).XOR(cb.EncryptRounds(p.XOR(delta), rounds))
	return uint32(d.X) | uint32(d.Y)<<16
}

// planes builds EncryptCrossDiffPlanes64's inputs: each lane's key
// packed as words 0..3 in 16-bit fields and its block as X ‖ Y<<16,
// then transposed.
func planes(keys *[64]simeck.Key, blocks *[64]simeck.Block) (kp [64]uint64, pp [32]uint64) {
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
	simeck.EncryptCrossDiffPlanes64(&kp, c.KeyD, &pp, c.Delta, c.Rounds, &out)
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
	testkit.Check(t, "simeck-sliced-diff", slicedCases(func(r *prng.Rand) (simeck.Block, simeck.Key) {
		return randomDelta(r), simeck.Key{}
	}), matchesScalar)
}

// TestEncryptCrossDiffSliced64 pins the related-key path (∇ ≠ 0, two
// full schedule chains) lane for lane against the scalar oracle for
// random δ and ∇.
func TestEncryptCrossDiffSliced64(t *testing.T) {
	testkit.Check(t, "simeck-sliced-cross-diff", slicedCases(func(r *prng.Rand) (simeck.Block, simeck.Key) {
		return randomDelta(r), randomKeyD(r)
	}), matchesScalar)
}

// TestEncryptCrossDiffPlanes64 pins the kernel on the sparse
// differences the registered scenarios sample with — (NDDelta, 0) and
// (NDDelta, LuKeyDelta) are single bits — which uniformly random
// differences almost never are: δ is one random bit and ∇ is zero or
// one random bit.
func TestEncryptCrossDiffPlanes64(t *testing.T) {
	testkit.Check(t, "simeck-sliced-sparse-diff", slicedCases(func(r *prng.Rand) (simeck.Block, simeck.Key) {
		d := uint32(1) << (r.Uint64() % 32)
		var k simeck.Key
		if r.Uint64()%2 == 1 {
			b := r.Uint64() % 64
			k[b/16] = 1 << (b % 16)
		}
		return simeck.Block{X: uint16(d), Y: uint16(d >> 16)}, k
	}), matchesScalar)
}

// rejects reports whether EncryptCrossDiffPlanes64 panics on n rounds
// under key difference keyD.
func rejects(keyD simeck.Key, n int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	var keyPlanes [64]uint64
	var ptPlanes [32]uint64
	var out [64]uint32
	simeck.EncryptCrossDiffPlanes64(&keyPlanes, keyD, &ptPlanes, simeck.NDDelta, n, &out)
	return false
}

// TestEncryptDiffSliced64RangeCheck: the single-key path rejects round
// counts outside [0, Rounds].
func TestEncryptDiffSliced64RangeCheck(t *testing.T) {
	for _, n := range []int{-1, simeck.Rounds + 1} {
		if !rejects(simeck.Key{}, n) {
			t.Errorf("EncryptCrossDiffPlanes64 accepted %d rounds at ∇ = 0", n)
		}
	}
}

// TestEncryptCrossDiffSliced64RangeCheck: so does the related-key path.
func TestEncryptCrossDiffSliced64RangeCheck(t *testing.T) {
	for _, n := range []int{-1, simeck.Rounds + 1} {
		if !rejects(simeck.LuKeyDelta, n) {
			t.Errorf("EncryptCrossDiffPlanes64 accepted %d rounds at ∇ = LuKeyDelta", n)
		}
	}
}

// TestEncryptCrossDiffPlanes64RangeCheck: both ends of [0, Rounds] are
// accepted on both paths.
func TestEncryptCrossDiffPlanes64RangeCheck(t *testing.T) {
	for _, keyD := range []simeck.Key{{}, simeck.LuKeyDelta} {
		for _, n := range []int{0, simeck.Rounds} {
			if rejects(keyD, n) {
				t.Errorf("EncryptCrossDiffPlanes64 rejected %d rounds at ∇ = %04x", n, keyD)
			}
		}
	}
}
