// Tests for the bitsliced ×64 Chaskey kernel: bit-identity with two
// scalar Permute calls is checked lane by lane, across random states and
// differences and every round count up to LTS, so the dataset fast
// path can trust PermuteDiffDrawCols64 blindly.
package chaskey_test

import (
	"fmt"
	"testing"

	"repro/internal/chaskey"
	"repro/internal/prng"
	"repro/internal/testkit"
)

// slicedCase is 64 independent state lanes plus a round count and an
// input difference — one full kernel invocation.
type slicedCase struct {
	States [64]chaskey.State
	Delta  chaskey.State
	Rounds int
}

// slicedCases generates random 64-lane inputs. Shrinking zeroes one
// lane at a time so a failure reports the minimal set of live lanes.
func slicedCases() testkit.Gen[slicedCase] {
	return testkit.Gen[slicedCase]{
		Name: "64-lane chaskey case",
		Generate: func(r *prng.Rand) slicedCase {
			var c slicedCase
			for l := range c.States {
				for w := range c.States[l] {
					c.States[l][w] = r.Uint32()
				}
			}
			for w := range c.Delta {
				c.Delta[w] = r.Uint32()
			}
			c.Rounds = int(r.Uint64() % (chaskey.LTSRounds + 1))
			return c
		},
		Shrink: func(c slicedCase) []slicedCase {
			var out []slicedCase
			if c.Rounds > 0 {
				d := c
				d.Rounds--
				out = append(out, d)
			}
			for l := range c.States {
				if c.States[l] != (chaskey.State{}) {
					d := c
					d.States[l] = chaskey.State{}
					out = append(out, d)
				}
			}
			return out
		},
		Format: func(c slicedCase) string {
			return fmt.Sprintf("rounds=%d delta=%08x lane0 state=%08x",
				c.Rounds, c.Delta, c.States[0])
		},
	}
}

// drawCols lays the lane states out as PermuteDiffDrawCols64's draw
// columns: state word w of lane l in the top half of cols[w*64+l], the
// low half zero.
func drawCols(states *[64]chaskey.State) (cols [4 * chaskey.SlicedLanes]uint64) {
	for l, s := range states {
		for w, v := range s {
			cols[w*64+l] = uint64(v) << 32
		}
	}
	return
}

// TestPermuteDiffSliced64 pins the kernel lane for lane against two
// scalar Permute calls.
func TestPermuteDiffSliced64(t *testing.T) {
	testkit.Check(t, "chaskey-sliced-diff", slicedCases(), func(c slicedCase) error {
		cols := drawCols(&c.States)
		var outLo, outHi [64]uint64
		chaskey.PermuteDiffDrawCols64(&cols, c.Delta, c.Rounds, &outLo, &outHi)
		for l := 0; l < 64; l++ {
			d := chaskey.Permute(c.States[l], c.Rounds).XOR(chaskey.Permute(c.States[l].XOR(c.Delta), c.Rounds))
			wantLo := uint64(d[0]) | uint64(d[1])<<32
			wantHi := uint64(d[2]) | uint64(d[3])<<32
			if outLo[l] != wantLo || outHi[l] != wantHi {
				return fmt.Errorf("lane %d over %d rounds: diff %016x %016x vs scalar %016x %016x",
					l, c.Rounds, outLo[l], outHi[l], wantLo, wantHi)
			}
		}
		return nil
	})
}

// TestPermuteDiffDrawCols64 pins the kernel's >>32 truncation of the
// draw columns: junk in their low halves, as a full Uint64 draw
// carries, leaves every output unchanged.
func TestPermuteDiffDrawCols64(t *testing.T) {
	testkit.Check(t, "chaskey-sliced-drawcols", slicedCases(), func(c slicedCase) error {
		clean := drawCols(&c.States)
		dirty := clean
		for i := range dirty {
			dirty[i] |= (uint64(i)*0x9e3779b97f4a7c15 + 1) >> 32
		}
		var wantLo, wantHi, gotLo, gotHi [64]uint64
		chaskey.PermuteDiffDrawCols64(&clean, c.Delta, c.Rounds, &wantLo, &wantHi)
		chaskey.PermuteDiffDrawCols64(&dirty, c.Delta, c.Rounds, &gotLo, &gotHi)
		if gotLo != wantLo || gotHi != wantHi {
			return fmt.Errorf("junk in the low halves changed the output over %d rounds", c.Rounds)
		}
		return nil
	})
}

// rejects reports whether PermuteDiffDrawCols64 panics on n rounds.
func rejects(n int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	var cols [4 * chaskey.SlicedLanes]uint64
	var outLo, outHi [64]uint64
	chaskey.PermuteDiffDrawCols64(&cols, chaskey.NDDelta, n, &outLo, &outHi)
	return false
}

// TestPermuteDiffSliced64RangeCheck: the kernel rejects round counts
// outside [0, LTSRounds].
func TestPermuteDiffSliced64RangeCheck(t *testing.T) {
	for _, n := range []int{-1, chaskey.LTSRounds + 1} {
		if !rejects(n) {
			t.Errorf("PermuteDiffDrawCols64 accepted %d rounds", n)
		}
	}
}

// TestPermuteDiffDrawCols64RangeCheck: both ends of [0, LTSRounds] are
// accepted.
func TestPermuteDiffDrawCols64RangeCheck(t *testing.T) {
	for _, n := range []int{0, chaskey.LTSRounds} {
		if rejects(n) {
			t.Errorf("PermuteDiffDrawCols64 rejected %d rounds", n)
		}
	}
}
