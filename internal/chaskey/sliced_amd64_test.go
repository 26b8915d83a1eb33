//go:build amd64

package chaskey

import (
	"testing"

	"repro/internal/prng"
)

// TestPermuteDiffSlicedAccelParity forces the bit-plane fallback and
// checks it against the AVX2 word-sliced kernel on the same inputs —
// the two implementations share no code beyond the spec, so agreement
// pins both. Skipped (with the fallback still exercised elsewhere) on
// machines without AVX2.
func TestPermuteDiffSlicedAccelParity(t *testing.T) {
	if !useChaskeyAVX2 {
		t.Skip("no AVX2: accelerated path not available")
	}
	defer func(prev bool) { useChaskeyAVX2 = prev }(useChaskeyAVX2)

	rw := prng.New(0x5eed_c4a5)
	for trial := 0; trial < 32; trial++ {
		// Full random draws: state words on top, junk in the low halves.
		var cols [4 * SlicedLanes]uint64
		for i := range cols {
			cols[i] = rw.Uint64()
		}
		delta := State{rw.Uint32(), rw.Uint32(), rw.Uint32(), rw.Uint32()}
		if trial == 0 {
			delta = NDDelta
		}
		n := int(rw.Uint64() % (LTSRounds + 1))

		var accLo, accHi, planeLo, planeHi [64]uint64
		useChaskeyAVX2 = true
		PermuteDiffDrawCols64(&cols, delta, n, &accLo, &accHi)
		useChaskeyAVX2 = false
		PermuteDiffDrawCols64(&cols, delta, n, &planeLo, &planeHi)
		for l := 0; l < 64; l++ {
			if accLo[l] != planeLo[l] || accHi[l] != planeHi[l] {
				t.Fatalf("trial %d lane %d over %d rounds: AVX2 %016x %016x vs planes %016x %016x",
					trial, l, n, accLo[l], accHi[l], planeLo[l], planeHi[l])
			}
		}
	}
}
