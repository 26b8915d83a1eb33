// Tests for the bitsliced ×64 GIFT-64 kernel: bit-identity with the
// table-driven scalar path is checked lane by lane, across random keys,
// states and differences and every round count, so the dataset fast
// path can trust EncryptDiffPlanes64 blindly. Agreement of the 7-gate
// plane circuit with the SBox table and of the fused writeback with
// Perm64Table is implied by these end-to-end checks at n = 1.
package gift_test

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/gift"
	"repro/internal/prng"
	"repro/internal/testkit"
)

// slicedCase64 is 64 independent (key, state) lanes plus a round count
// and an input difference — one full kernel invocation.
type slicedCase64 struct {
	Keys   [64][8]uint16
	States [64]uint64
	Delta  uint64
	Rounds int
}

// slicedCases64 generates random 64-lane inputs with input differences
// from delta. Shrinking zeroes one lane at a time so a failure reports
// the minimal set of live lanes.
func slicedCases64(delta func(r *prng.Rand) uint64) testkit.Gen[slicedCase64] {
	return testkit.Gen[slicedCase64]{
		Name: "64-lane gift-64 case",
		Generate: func(r *prng.Rand) slicedCase64 {
			var c slicedCase64
			for l := range c.Keys {
				for w := range c.Keys[l] {
					c.Keys[l][w] = r.Uint16()
				}
				c.States[l] = r.Uint64()
			}
			c.Delta = delta(r)
			c.Rounds = int(r.Uint64() % (gift.Rounds64 + 1))
			return c
		},
		Shrink: func(c slicedCase64) []slicedCase64 {
			var out []slicedCase64
			if c.Rounds > 0 {
				d := c
				d.Rounds--
				out = append(out, d)
			}
			for l := range c.Keys {
				if c.Keys[l] != ([8]uint16{}) || c.States[l] != 0 {
					d := c
					d.Keys[l] = [8]uint16{}
					d.States[l] = 0
					out = append(out, d)
				}
			}
			return out
		},
		Format: func(c slicedCase64) string {
			return fmt.Sprintf("rounds=%d delta=%016x lane0 key=%04x state=%016x",
				c.Rounds, c.Delta, c.Keys[0], c.States[0])
		},
	}
}

// planes64 builds EncryptDiffPlanes64's inputs: each lane's key packed
// as words 0..3 (lo) and 4..7 (hi) in 16-bit fields, then transposed
// along with the state words.
func planes64(keys *[64][8]uint16, states *[64]uint64) (lo, hi, pt [64]uint64) {
	for l, k := range keys {
		lo[l] = uint64(k[0]) | uint64(k[1])<<16 | uint64(k[2])<<32 | uint64(k[3])<<48
		hi[l] = uint64(k[4]) | uint64(k[5])<<16 | uint64(k[6])<<32 | uint64(k[7])<<48
	}
	pt = *states
	bits.Transpose64(&lo)
	bits.Transpose64(&hi)
	bits.Transpose64(&pt)
	return
}

// matchesScalar runs the fused differential kernel on c and compares
// every lane with two scalar encryptions.
func matchesScalar(c slicedCase64) error {
	lo, hi, pt := planes64(&c.Keys, &c.States)
	var out [64]uint64
	gift.EncryptDiffPlanes64(&lo, &hi, &pt, c.Delta, c.Rounds, &out)
	var cipher gift.Cipher64
	for l := 0; l < 64; l++ {
		cipher.Expand(c.Keys[l])
		want := cipher.EncryptRounds(c.States[l], c.Rounds) ^
			cipher.EncryptRounds(c.States[l]^c.Delta, c.Rounds)
		if out[l] != want {
			return fmt.Errorf("lane %d over %d rounds δ=%016x: diff %016x vs scalar %016x",
				l, c.Rounds, c.Delta, out[l], want)
		}
	}
	return nil
}

// TestEncryptDiffSliced64 pins the kernel lane for lane against the
// scalar oracle for random differences.
func TestEncryptDiffSliced64(t *testing.T) {
	testkit.Check(t, "gift64-sliced-diff", slicedCases64(func(r *prng.Rand) uint64 {
		return r.Uint64()
	}), matchesScalar)
}

// TestEncryptDiffPlanes64 pins it on single-bit differences, the shape
// of the registered scenario's δ = 0x2 that uniformly random
// differences almost never take.
func TestEncryptDiffPlanes64(t *testing.T) {
	testkit.Check(t, "gift64-sliced-sparse-diff", slicedCases64(func(r *prng.Rand) uint64 {
		return 1 << (r.Uint64() % 64)
	}), matchesScalar)
}

// rejects reports whether EncryptDiffPlanes64 panics on n rounds.
func rejects(n int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	var lo, hi, pt, out [64]uint64
	gift.EncryptDiffPlanes64(&lo, &hi, &pt, 2, n, &out)
	return false
}

// TestEncryptDiffSliced64RangeCheck: the kernel rejects round counts
// outside [0, Rounds64].
func TestEncryptDiffSliced64RangeCheck(t *testing.T) {
	for _, n := range []int{-1, gift.Rounds64 + 1} {
		if !rejects(n) {
			t.Errorf("EncryptDiffPlanes64 accepted %d rounds", n)
		}
	}
}

// TestEncryptDiffPlanes64RangeCheck: both ends of [0, Rounds64] are
// accepted.
func TestEncryptDiffPlanes64RangeCheck(t *testing.T) {
	for _, n := range []int{0, gift.Rounds64} {
		if rejects(n) {
			t.Errorf("EncryptDiffPlanes64 rejected %d rounds", n)
		}
	}
}

// BenchmarkGift64EncryptSliced measures the ×64 bitsliced difference
// kernel at the registered 4-round depth and the full 28 rounds;
// ns/op covers 64 difference pairs, so divide by 64 to compare
// against per-pair scalar encryption. The kernel clobbers its planes,
// so each op starts from a fresh copy.
func BenchmarkGift64EncryptSliced(b *testing.B) {
	r := prng.New(0xb17e)
	var keys [64][8]uint16
	var states [64]uint64
	for l := range keys {
		for w := range keys[l] {
			keys[l][w] = r.Uint16()
		}
		states[l] = r.Uint64()
	}
	lo, hi, pt := planes64(&keys, &states)
	var out [64]uint64
	for _, rounds := range []int{4, gift.Rounds64} {
		b.Run(fmt.Sprintf("planes-x64-%dr", rounds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kl, kh, p := lo, hi, pt
				gift.EncryptDiffPlanes64(&kl, &kh, &p, 0x2, rounds, &out)
			}
			b.ReportMetric(64, "pairs/op")
		})
	}
}
