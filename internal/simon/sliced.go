package simon

// This file implements the bitsliced ×64 SIMON-32/64 differential
// kernel behind the dataset-generation fast path, extending the SPECK
// bitslice architecture to the AND-RX Feistel: 64 independent
// (key, plaintext) lanes arrive in bit-plane form — plane i
// holds bit i of a 16-bit word across all 64 lanes — and the round map
//
//	x, y ← y ⊕ f(x) ⊕ k, x     with f(x) = (x⋘1 & x⋘8) ⊕ x⋘2
//
// costs one AND and three XORs per bit plane, with every rotation a
// renaming of plane indices. The key schedule runs in plane form too,
// as a four-slot ring over the transposed key matrix, with the constant
// 0xfffc ⊕ z0 a branchless plane complement. The kernel is
// bit-identical to the scalar path by construction; sliced_test.go
// pins lane-for-lane equality against two scalar EncryptRounds calls
// for every round count, difference and key difference.

import (
	"fmt"

	"repro/internal/bits"
)

// SlicedLanes is the lane count of EncryptCrossDiffPlanes64.
const SlicedLanes = 64

// schedSlots views a transposed 64×64 key matrix as the four-slot
// round-key ring the schedule recurrence runs over: key word 3 = k0 =
// rk0 sits in the top plane group, and rk[i] for i ≥ 4
// overwrites slot i&3 (which held rk[i−4]) in place.
func schedSlots(m *[64]uint64) [4]*[16]uint64 {
	return [4]*[16]uint64{
		(*[16]uint64)(m[48:64]), // rk0 = key[3]
		(*[16]uint64)(m[32:48]), // rk1 = key[2]
		(*[16]uint64)(m[16:32]), // rk2 = key[1]
		(*[16]uint64)(m[0:16]),  // rk3 = key[0]
	}
}

// schedStep computes round key i (i ≥ 4) into slot i&3 in plane form:
//
//	u = RotR16(rk[i−1], 3) ⊕ rk[i−3];  u ⊕= RotR16(u, 1)
//	rk[i] = 0xfffc ⊕ z0[i−4] ⊕ rk[i−4] ⊕ u
//
// The constant planes are branchless complements: bits 2…15 of 0xfffc
// are ones, bit 0 carries the z0 sequence bit, bit 1 is zero.
func schedStep(slots *[4]*[16]uint64, i int) {
	rk1 := slots[(i-1)&3]
	rk3 := slots[(i-3)&3]
	dst := slots[i&3] // holds rk[i−4], read and overwritten below
	var u [16]uint64
	for b := uint(0); b < 16; b++ {
		u[b] = rk1[(b+3)&15] ^ rk3[b]
	}
	z := -uint64(z0[(i-KeyWords)%62] - '0')
	dst[0] ^= z ^ u[0] ^ u[1]
	dst[1] ^= u[1] ^ u[2]
	for b := uint(2); b < 16; b++ {
		dst[b] ^= ^(u[b] ^ u[(b+1)&15])
	}
}

// feistelRound advances one state by one round in plane form: nx =
// y ⊕ (x⋘1 & x⋘8) ⊕ x⋘2 ⊕ rk, and y becomes the old x in place.
// Callers then swap x and nx. nx must not alias x or y.
func feistelRound(nx, x, y, rk *[16]uint64) {
	for i := uint(0); i < 16; i++ {
		nx[i] = y[i] ^ (x[(i-1)&15] & x[(i-8)&15]) ^ x[(i-2)&15] ^ rk[i]
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
		panic(fmt.Sprintf("simon: invalid round count %d", n))
	}
	// Schedule ring viewed in place over the key planes.
	ska := schedSlots(keyPlanes)
	skb := ska
	var mb [64]uint64
	sameKey := keyDelta.IsZero()
	if !sameKey {
		// The second chain's key planes are the first's with the ∇
		// planes complemented; it then runs its own schedule ring.
		mb = *keyPlanes
		for w := 0; w < KeyWords; w++ {
			for b := uint(0); b < 16; b++ {
				mb[16*w+int(b)] ^= -uint64(keyDelta[w] >> b & 1)
			}
		}
		skb = schedSlots(&mb)
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

	for r := 0; r < n; r++ {
		feistelRound(na, xa, ya, ska[r&3])
		feistelRound(nb, xb, yb, skb[r&3])
		xa, na = na, xa
		xb, nb = nb, xb
		// The ring only holds four round keys; schedule rk[r+4] lazily
		// so reduced regimes never pay for unused schedule steps.
		if r+4 < n {
			schedStep(&ska, r+4)
			if !sameKey {
				schedStep(&skb, r+4)
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
