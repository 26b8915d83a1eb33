package simeck

// This file implements the bitsliced ×64 SIMECK-32/64 differential
// kernel behind the dataset-generation fast path — the SIMON sliced
// architecture with SIMECK's round map
//
//	x, y ← y ⊕ f(x) ⊕ k, x     with f(x) = (x & x⋘5) ⊕ x⋘1
//
// and its schedule, which applies the same f to the key registers:
// (k, t0, t1, t2) ← (t0, t1, t2, k ⊕ f(t0) ⊕ 0xfffc ⊕ z). In plane
// form the register file is four plane groups inside the transposed
// key matrix rotating by pointer, the new t2 overwrites the old k
// group in place, and the LFSR constant is a branchless plane
// complement shared by every lane. Bit-identity with the scalar path
// is pinned by sliced_test.go for every round count, difference and
// key difference.

import (
	"fmt"

	"repro/internal/bits"
)

// SlicedLanes is the lane count of EncryptCrossDiffPlanes64.
const SlicedLanes = 64

// keyRegs views a transposed 64×64 key matrix as the schedule's
// register file (k, t0, t1, t2): key word 3 = k0 sits in the top plane
// group and key word 0 = t2 in the bottom one.
func keyRegs(m *[64]uint64) [4]*[16]uint64 {
	return [4]*[16]uint64{
		(*[16]uint64)(m[48:64]), // k  = key[3]
		(*[16]uint64)(m[32:48]), // t0 = key[2]
		(*[16]uint64)(m[16:32]), // t1 = key[1]
		(*[16]uint64)(m[0:16]),  // t2 = key[0]
	}
}

// schedStep advances the register file one round: the old k group is
// overwritten in place with k ⊕ f(t0) ⊕ 0xfffc ⊕ z (each plane reads
// itself only at its own index, so no copy is needed) and the pointers
// rotate. z is the round's LFSR bit as an all-ones/zero mask.
func schedStep(regs *[4]*[16]uint64, z uint64) {
	k, t0 := regs[0], regs[1]
	k[0] ^= (t0[0] & t0[11]) ^ t0[15] ^ z
	k[1] ^= (t0[1] & t0[12]) ^ t0[0]
	for b := uint(2); b < 16; b++ {
		k[b] ^= ^((t0[b] & t0[(b-5)&15]) ^ t0[b-1])
	}
	regs[0], regs[1], regs[2], regs[3] = regs[1], regs[2], regs[3], regs[0]
}

// feistelRound advances one state by one round in plane form: nx =
// y ⊕ (x & x⋘5) ⊕ x⋘1 ⊕ rk, and y becomes the old x in place.
// Callers then swap x and nx. nx must not alias x or y.
func feistelRound(nx, x, y, rk *[16]uint64) {
	for i := uint(0); i < 16; i++ {
		nx[i] = y[i] ^ (x[i] & x[(i-5)&15]) ^ x[(i-1)&15] ^ rk[i]
		y[i] = x[i]
	}
}

// EncryptCrossDiffPlanes64 is the fused related-key differential-sampler
// kernel: for each lane l it computes
//
//	EncryptRounds_K[l](p[l], n) ⊕ EncryptRounds_{K[l] ⊕ keyDelta}(p[l] ⊕ delta, n)
//
// returning the 64 output differences as X ‖ Y<<16 words. The second
// state runs a full second schedule chain derived from the complemented
// key planes; keyDelta zero degenerates to the single-key kernel (one
// shared schedule chain). Inputs arrive in plane form: keyPlanes holds
// bit b of key word w (the word order New takes) across the 64 lanes in
// plane 16w+b, and ptPlanes the plaintexts, planes 0..15 the X bits and
// 16..31 the Y bits. The batched-draw sampler builds both directly from
// column-major PRNG draws via bits.TransposeTop16Pair. Both plane arrays
// are clobbered.
func EncryptCrossDiffPlanes64(keyPlanes *[64]uint64, keyDelta Key, ptPlanes *[32]uint64, delta Block, n int, out *[64]uint32) {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("simeck: invalid round count %d", n))
	}
	// Schedule register file viewed in place over the key planes.
	ra := keyRegs(keyPlanes)
	// rb must point AT ra when the key is shared — schedStep rotates
	// the register array, so a copy of it would go stale after round 0.
	rb := &ra
	var mb [64]uint64
	var rbOwn [4]*[16]uint64
	sameKey := keyDelta.IsZero()
	if !sameKey {
		mb = *keyPlanes
		for w := 0; w < KeyWords; w++ {
			for b := uint(0); b < 16; b++ {
				mb[16*w+int(b)] ^= -uint64(keyDelta[w] >> b & 1)
			}
		}
		rbOwn = keyRegs(&mb)
		rb = &rbOwn
	}

	// The δ-partner differs by a complement of the planes where delta
	// has a 1.
	var ta, xbb, ybb, tb [16]uint64
	xa, ya := (*[16]uint64)(ptPlanes[0:16]), (*[16]uint64)(ptPlanes[16:32])
	xb, yb := &xbb, &ybb
	for i := uint(0); i < 16; i++ {
		xb[i] = xa[i] ^ -uint64(delta.X>>i&1)
		yb[i] = ya[i] ^ -uint64(delta.Y>>i&1)
	}
	na, nb := &ta, &tb

	lfsr := uint16(0x1f) // 5-bit LFSR state, all-ones init, as in Expand
	for r := 0; r < n; r++ {
		feistelRound(na, xa, ya, ra[0])
		feistelRound(nb, xb, yb, rb[0])
		xa, na = na, xa
		xb, nb = nb, xb
		if r+1 < n {
			z := lfsr & 1
			lfsr = lfsr>>1 | (z^lfsr>>2&1)<<4 // x^5 + x^2 + 1
			// The schedule constant 0xfffc ⊕ z: bit 0 carries z, bit 1
			// is zero, bits 2…15 are ones — folded into schedStep.
			schedStep(&ra, -uint64(z))
			if !sameKey {
				schedStep(rb, -uint64(z))
			}
		}
	}

	// Output difference, planes → lanes.
	var od [32]uint64
	for i := 0; i < 16; i++ {
		od[i] = xa[i] ^ xb[i]
		od[i+16] = ya[i] ^ yb[i]
	}
	bits.UntransposeRows32(&od, out)
}
