// Tests for the bitsliced ×64 SIMON kernels: bit-identity with the
// scalar path is checked lane by lane, across random keys, random
// plaintext and key differences, and every round count, so the dataset
// fast path can trust the sliced kernels blindly.
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

// slicedCases generates random 64-lane inputs. Shrinking zeroes one
// lane at a time so a failure reports the minimal set of live lanes.
func slicedCases() testkit.Gen[slicedCase] {
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
			c.Delta = simon.Block{X: r.Uint16(), Y: r.Uint16()}
			c.KeyD = simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
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

// TestEncryptDiffSliced64 pins the single-key kernel lane for lane
// against the scalar oracle.
func TestEncryptDiffSliced64(t *testing.T) {
	testkit.Check(t, "simon-sliced-diff", slicedCases(), func(c slicedCase) error {
		var keyRows [64]uint64
		var ptRows [64]uint32
		for l := 0; l < 64; l++ {
			keyRows[l] = simon.PackKeyRow(c.Keys[l])
			ptRows[l] = simon.PackBlockRow(c.Blocks[l])
		}
		var out [64]uint32
		simon.EncryptDiffSliced64(&keyRows, &ptRows, c.Delta, c.Rounds, &out)
		for l := 0; l < 64; l++ {
			want := scalarDiff(c.Keys[l], c.Blocks[l], c.Delta, simon.Key{}, c.Rounds)
			if out[l] != want {
				return fmt.Errorf("lane %d over %d rounds: diff %08x vs scalar %08x", l, c.Rounds, out[l], want)
			}
		}
		return nil
	})
}

// TestEncryptCrossDiffSliced64 pins the related-key kernel — two full
// schedule chains — against the scalar oracle under K ⊕ ∇, including
// the ∇ = 0 degeneration.
func TestEncryptCrossDiffSliced64(t *testing.T) {
	testkit.Check(t, "simon-sliced-cross-diff", slicedCases(), func(c slicedCase) error {
		var keyRows [64]uint64
		var ptRows [64]uint32
		for l := 0; l < 64; l++ {
			keyRows[l] = simon.PackKeyRow(c.Keys[l])
			ptRows[l] = simon.PackBlockRow(c.Blocks[l])
		}
		var out [64]uint32
		simon.EncryptCrossDiffSliced64(&keyRows, c.KeyD, &ptRows, c.Delta, c.Rounds, &out)
		for l := 0; l < 64; l++ {
			want := scalarDiff(c.Keys[l], c.Blocks[l], c.Delta, c.KeyD, c.Rounds)
			if out[l] != want {
				return fmt.Errorf("lane %d over %d rounds ∇=%04x: diff %08x vs scalar %08x",
					l, c.Rounds, c.KeyD, out[l], want)
			}
		}
		return nil
	})
}

// TestEncryptCrossDiffPlanes64 pins the plane-form entry against the
// row-form kernel: transposing the packed rows by hand and calling the
// planes entry must reproduce EncryptCrossDiffSliced64 exactly.
func TestEncryptCrossDiffPlanes64(t *testing.T) {
	testkit.Check(t, "simon-sliced-planes", slicedCases(), func(c slicedCase) error {
		var keyRows [64]uint64
		var ptRows [64]uint32
		for l := 0; l < 64; l++ {
			keyRows[l] = simon.PackKeyRow(c.Keys[l])
			ptRows[l] = simon.PackBlockRow(c.Blocks[l])
		}
		var want [64]uint32
		simon.EncryptCrossDiffSliced64(&keyRows, c.KeyD, &ptRows, c.Delta, c.Rounds, &want)
		ma := keyRows
		bits.Transpose64(&ma)
		var mp [32]uint64
		bits.TransposeRows32(&ptRows, &mp)
		var got [64]uint32
		simon.EncryptCrossDiffPlanes64(&ma, c.KeyD, &mp, c.Delta, c.Rounds, &got)
		if got != want {
			return fmt.Errorf("plane-form entry differs from row-form kernel")
		}
		return nil
	})
}

func TestEncryptDiffSliced64RangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncryptDiffSliced64 accepted 33 rounds")
		}
	}()
	var keyRows [64]uint64
	var ptRows [64]uint32
	var out [64]uint32
	simon.EncryptDiffSliced64(&keyRows, &ptRows, simon.NDDelta, simon.Rounds+1, &out)
}

func TestEncryptCrossDiffSliced64RangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncryptCrossDiffSliced64 accepted -1 rounds")
		}
	}()
	var keyRows [64]uint64
	var ptRows [64]uint32
	var out [64]uint32
	simon.EncryptCrossDiffSliced64(&keyRows, simon.LuKeyDelta, &ptRows, simon.NDDelta, -1, &out)
}

func TestEncryptCrossDiffPlanes64RangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncryptCrossDiffPlanes64 accepted -1 rounds")
		}
	}()
	var keyPlanes [64]uint64
	var ptPlanes [32]uint64
	var out [64]uint32
	simon.EncryptCrossDiffPlanes64(&keyPlanes, simon.LuKeyDelta, &ptPlanes, simon.NDDelta, -1, &out)
}
