//go:build amd64

package chaskey

import "repro/internal/cpu"

// AVX2 side of PermuteDiffDrawCols64: the Go wrapper splits the draw
// columns into per-word lane arrays — the word-sliced layout the
// assembly kernel in sliced_amd64.s walks, eight lanes per YMM
// register — and packs the output differences back. useChaskeyAVX2 is
// a variable so tests can force the bit-plane fallback and check both
// paths agree on the same machine.

var useChaskeyAVX2 = cpu.HasAVX2()

// permutePairAVX2 applies n permutation rounds in place to both
// word-sliced state sets (sliced_amd64.s).
//
//go:noescape
func permutePairAVX2(va, vb *[4][64]uint32, n int)

// permuteDiffColsAccel is the vector arm of PermuteDiffDrawCols64: the
// >>32 truncation of the raw draws happens while building the δ-partner
// pair, one pass over the draw buffer.
func permuteDiffColsAccel(cols *[4 * SlicedLanes]uint64, delta State, n int, outLo, outHi *[64]uint64) bool {
	if !useChaskeyAVX2 {
		return false
	}
	var va, vb [4][64]uint32
	for w := 0; w < 4; w++ {
		d := delta[w]
		col := cols[w*SlicedLanes : (w+1)*SlicedLanes]
		for l, raw := range col {
			v := uint32(raw >> 32)
			va[w][l] = v
			vb[w][l] = v ^ d
		}
	}
	permutePairAVX2(&va, &vb, n)
	for l := 0; l < 64; l++ {
		outLo[l] = uint64(va[0][l]^vb[0][l]) | uint64(va[1][l]^vb[1][l])<<32
		outHi[l] = uint64(va[2][l]^vb[2][l]) | uint64(va[3][l]^vb[3][l])<<32
	}
	return true
}
