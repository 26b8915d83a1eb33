// Property tests through internal/testkit. External test package:
// testkit imports simeck, so these cannot live in package simeck.
package simeck_test

import (
	"fmt"
	"testing"

	"repro/internal/simeck"
	"repro/internal/testkit"
)

// TestEncryptDecryptRoundTrip: DecryptRounds inverts EncryptRounds for
// every key, block, and round count in [0, 32].
func TestEncryptDecryptRoundTrip(t *testing.T) {
	testkit.Check(t, "simeck-encrypt-decrypt", testkit.SimeckCases(), func(c testkit.SimeckCase) error {
		ci := simeck.New(c.Key)
		ct := ci.EncryptRounds(c.Block, c.Rounds)
		if got := ci.DecryptRounds(ct, c.Rounds); got != c.Block {
			return fmt.Errorf("decrypt(encrypt(%v)) = %v over %d rounds", c.Block, got, c.Rounds)
		}
		return nil
	})
}

// TestEncryptionIsPermutation: distinct plaintexts stay distinct under
// the same key (injectivity on a sampled pair).
func TestEncryptionIsPermutation(t *testing.T) {
	testkit.Check(t, "simeck-injective", testkit.SimeckCases(), func(c testkit.SimeckCase) error {
		ci := simeck.New(c.Key)
		other := simeck.Block{X: c.Block.X ^ 1, Y: c.Block.Y}
		if ci.EncryptRounds(c.Block, c.Rounds) == ci.EncryptRounds(other, c.Rounds) {
			return fmt.Errorf("collision: %v and %v encrypt equal over %d rounds", c.Block, other, c.Rounds)
		}
		return nil
	})
}

// TestExpandMatchesNew: re-keying a dirty Cipher in place produces the
// same schedule New computes from scratch.
func TestExpandMatchesNew(t *testing.T) {
	testkit.Check(t, "simeck-expand-determinism", testkit.SimeckCases(), func(c testkit.SimeckCase) error {
		var dirty simeck.Cipher
		dirty.Expand(simeck.Key{0xffff, 0xeeee, 0xdddd, 0xcccc}) // dirty schedule first
		dirty.Expand(c.Key)
		fresh := simeck.New(c.Key)
		for i := 0; i < simeck.Rounds; i++ {
			if dirty.RoundKey(i) != fresh.RoundKey(i) {
				return fmt.Errorf("round key %d: Expand gives %04x, New gives %04x", i, dirty.RoundKey(i), fresh.RoundKey(i))
			}
		}
		return nil
	})
}
