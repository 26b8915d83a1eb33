// Property tests through internal/testkit. External test package:
// testkit imports chaskey, so these cannot live in package chaskey.
package chaskey_test

import (
	"fmt"
	"testing"

	"repro/internal/chaskey"
	"repro/internal/testkit"
)

// TestPermuteInvPermuteRoundTrip: InvPermute inverts Permute for every
// state and round count in [0, 12].
func TestPermuteInvPermuteRoundTrip(t *testing.T) {
	testkit.Check(t, "chaskey-permute-invert", testkit.ChaskeyCases(), func(c testkit.ChaskeyCase) error {
		out := chaskey.Permute(c.State, c.Rounds)
		if got := chaskey.InvPermute(out, c.Rounds); got != c.State {
			return fmt.Errorf("InvPermute(Permute(s)) = %08x over %d rounds", got, c.Rounds)
		}
		return nil
	})
}

// TestPermutationIsInjective: distinct states stay distinct (sampled
// single-bit neighbor).
func TestPermutationIsInjective(t *testing.T) {
	testkit.Check(t, "chaskey-injective", testkit.ChaskeyCases(), func(c testkit.ChaskeyCase) error {
		other := c.State
		other[0] ^= 1
		if chaskey.Permute(c.State, c.Rounds) == chaskey.Permute(other, c.Rounds) {
			return fmt.Errorf("collision over %d rounds", c.Rounds)
		}
		return nil
	})
}

// TestBytesRoundTrip: the byte codec used by the KAT harness and the
// MAC is lossless.
func TestBytesRoundTrip(t *testing.T) {
	testkit.Check(t, "chaskey-state-bytes", testkit.ChaskeyCases(), func(c testkit.ChaskeyCase) error {
		if got := chaskey.StateFromBytes(c.State.Bytes()); got != c.State {
			return fmt.Errorf("StateFromBytes(Bytes(%08x)) = %08x", c.State, got)
		}
		return nil
	})
}

// TestMACDistinctUnderKeys: the MAC separates keys (sampled check that
// the state-as-key influences the tag).
func TestMACDistinctUnderKeys(t *testing.T) {
	testkit.Check(t, "chaskey-mac-keyed", testkit.ChaskeyCases(), func(c testkit.ChaskeyCase) error {
		msg := c.State.Bytes()[:5]
		k2 := c.State
		k2[3] ^= 0x80000000
		t1 := chaskey.MAC(c.State.Bytes(), msg, chaskey.Rounds)
		t2 := chaskey.MAC(k2.Bytes(), msg, chaskey.Rounds)
		if string(t1) == string(t2) {
			return fmt.Errorf("tags collide under distinct keys")
		}
		return nil
	})
}
