// Tests for the bitsliced ×64 Chaskey kernel: bit-identity with two
// scalar Permute calls is checked lane by lane, across random states and
// differences and every round count up to LTS, so the dataset fast
// path can trust the sliced kernel blindly.
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

// TestPermuteDiffSliced64 pins the sliced kernel lane for lane against
// two scalar Permute calls.
func TestPermuteDiffSliced64(t *testing.T) {
	testkit.Check(t, "chaskey-sliced-diff", slicedCases(), func(c slicedCase) error {
		var loRows, hiRows [64]uint64
		for l := 0; l < 64; l++ {
			loRows[l], hiRows[l] = chaskey.PackStateRows(c.States[l])
		}
		var outLo, outHi [64]uint64
		chaskey.PermuteDiffSliced64(&loRows, &hiRows, c.Delta, c.Rounds, &outLo, &outHi)
		for l := 0; l < 64; l++ {
			a := chaskey.Permute(c.States[l], c.Rounds)
			b := chaskey.Permute(c.States[l].XOR(c.Delta), c.Rounds)
			wantLo, wantHi := chaskey.PackStateRows(a.XOR(b))
			if outLo[l] != wantLo || outHi[l] != wantHi {
				return fmt.Errorf("lane %d over %d rounds: diff %016x %016x vs scalar %016x %016x",
					l, c.Rounds, outLo[l], outHi[l], wantLo, wantHi)
			}
		}
		return nil
	})
}

// TestPermuteDiffWords64 pins the word-sliced entry against the
// packed-row kernel: splitting the rows into per-word lane arrays by
// hand must reproduce PermuteDiffSliced64 exactly.
func TestPermuteDiffWords64(t *testing.T) {
	testkit.Check(t, "chaskey-sliced-words", slicedCases(), func(c slicedCase) error {
		var loRows, hiRows [64]uint64
		var words [4][64]uint32
		for l := 0; l < 64; l++ {
			loRows[l], hiRows[l] = chaskey.PackStateRows(c.States[l])
			words[0][l] = uint32(loRows[l])
			words[1][l] = uint32(loRows[l] >> 32)
			words[2][l] = uint32(hiRows[l])
			words[3][l] = uint32(hiRows[l] >> 32)
		}
		var wantLo, wantHi, gotLo, gotHi [64]uint64
		chaskey.PermuteDiffSliced64(&loRows, &hiRows, c.Delta, c.Rounds, &wantLo, &wantHi)
		chaskey.PermuteDiffWords64(&words, c.Delta, c.Rounds, &gotLo, &gotHi)
		if gotLo != wantLo || gotHi != wantHi {
			return fmt.Errorf("word-sliced entry differs from packed-row kernel")
		}
		return nil
	})
}

// TestPermuteDiffDrawCols64 pins the raw-draw-column entry against the
// packed-row kernel: each column word carries the state word in its top
// 32 bits with arbitrary garbage below, exactly as the batched sampler
// hands over full Uint64 draws.
func TestPermuteDiffDrawCols64(t *testing.T) {
	testkit.Check(t, "chaskey-sliced-drawcols", slicedCases(), func(c slicedCase) error {
		var loRows, hiRows [64]uint64
		var cols [4 * chaskey.SlicedLanes]uint64
		for l := 0; l < 64; l++ {
			loRows[l], hiRows[l] = chaskey.PackStateRows(c.States[l])
			// Low halves are junk the entry must ignore.
			junk := uint64(l)*0x9e3779b97f4a7c15 + 1
			cols[0*64+l] = uint64(c.States[l][0])<<32 | junk&0xffffffff
			cols[1*64+l] = uint64(c.States[l][1])<<32 | ^junk&0xffffffff
			cols[2*64+l] = uint64(c.States[l][2])<<32 | junk>>32
			cols[3*64+l] = uint64(c.States[l][3])<<32 | ^junk>>32
		}
		var wantLo, wantHi, gotLo, gotHi [64]uint64
		chaskey.PermuteDiffSliced64(&loRows, &hiRows, c.Delta, c.Rounds, &wantLo, &wantHi)
		chaskey.PermuteDiffDrawCols64(&cols, c.Delta, c.Rounds, &gotLo, &gotHi)
		if gotLo != wantLo || gotHi != wantHi {
			return fmt.Errorf("draw-column entry differs from packed-row kernel")
		}
		return nil
	})
}

func TestPermuteDiffDrawCols64RangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PermuteDiffDrawCols64 accepted -1 rounds")
		}
	}()
	var cols [4 * chaskey.SlicedLanes]uint64
	var outLo, outHi [64]uint64
	chaskey.PermuteDiffDrawCols64(&cols, chaskey.NDDelta, -1, &outLo, &outHi)
}

func TestPermuteDiffWords64RangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PermuteDiffWords64 accepted -1 rounds")
		}
	}()
	var words [4][64]uint32
	var outLo, outHi [64]uint64
	chaskey.PermuteDiffWords64(&words, chaskey.NDDelta, -1, &outLo, &outHi)
}

func TestPermuteDiffSliced64RangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PermuteDiffSliced64 accepted 13 rounds")
		}
	}()
	var loRows, hiRows, outLo, outHi [64]uint64
	chaskey.PermuteDiffSliced64(&loRows, &hiRows, chaskey.NDDelta, chaskey.LTSRounds+1, &outLo, &outHi)
}
