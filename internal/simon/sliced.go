package simon

// This file implements the bitsliced ×64 SIMON-32/64 differential
// kernels behind the dataset-generation fast path, extending the PR 6
// SPECK bitslice architecture to the AND-RX Feistel: 64 independent
// (key, plaintext) lanes are transposed into bit-plane form — plane i
// holds bit i of a 16-bit word across all 64 lanes — and the round map
//
//	x, y ← y ⊕ f(x) ⊕ k, x     with f(x) = (x⋘1 & x⋘8) ⊕ x⋘2
//
// costs one AND and three XORs per bit plane, with every rotation a
// renaming of plane indices. The key schedule runs in plane form too,
// as a four-slot ring over the transposed key matrix, with the constant
// 0xfffc ⊕ z0 a branchless plane complement. Both kernels are
// bit-identical to the scalar path by construction; sliced_test.go
// pins lane-for-lane equality against two scalar EncryptRounds calls
// for every round count, difference and key difference.

import (
	"fmt"

	"repro/internal/bits"
)

// SlicedLanes is the lane count of the sliced kernels.
const SlicedLanes = 64

// PackKeyRow packs the 4-word key (k3, k2, k1, k0) — the word order New
// takes — into the 64-bit lane row the sliced kernels consume.
func PackKeyRow(k Key) uint64 {
	return uint64(k[0]) | uint64(k[1])<<16 | uint64(k[2])<<32 | uint64(k[3])<<48
}

// PackBlockRow packs a block into the X ‖ Y<<16 lane row the sliced
// kernels consume — the packed-row bit layout the SIMON scenario
// datasets use.
func PackBlockRow(b Block) uint32 { return uint32(b.X) | uint32(b.Y)<<16 }

// EncryptDiffSliced64 is the fused single-key differential-sampler
// kernel: for each lane l it computes
//
//	EncryptRounds(p[l], n) ⊕ EncryptRounds(p[l] ⊕ delta, n)
//
// under lane l's own key schedule, returning the 64 output differences
// as X ‖ Y<<16 words. Inputs arrive as packed lane rows — PackKeyRow /
// PackBlockRow, built for free while the sampler draws its random
// words — and neither input array is modified.
func EncryptDiffSliced64(keyRows *[64]uint64, ptRows *[64]uint32, delta Block, n int, out *[64]uint32) {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("simon: invalid round count %d", n))
	}
	encryptDiffSliced(keyRows, Key{}, ptRows, delta, n, out)
}

// EncryptCrossDiffSliced64 is the related-key variant: lane l's second
// state is encrypted under K[l] ⊕ keyDelta, with a full second schedule
// chain derived from the complemented key planes. keyDelta zero
// degenerates to the single-key kernel (one shared schedule chain).
func EncryptCrossDiffSliced64(keyRows *[64]uint64, keyDelta Key, ptRows *[64]uint32, delta Block, n int, out *[64]uint32) {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("simon: invalid round count %d", n))
	}
	encryptDiffSliced(keyRows, keyDelta, ptRows, delta, n, out)
}

// schedSlots views a transposed 64×64 key matrix as the four-slot
// round-key ring the schedule recurrence runs over: PackKeyRow puts
// key[3] = k0 = rk0 in the top plane group, and rk[i] for i ≥ 4
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

func encryptDiffSliced(keyRows *[64]uint64, keyDelta Key, ptRows *[64]uint32, delta Block, n int, out *[64]uint32) {
	// Lane rows → planes, then the plane-form kernel.
	ma := *keyRows
	bits.Transpose64(&ma)
	var mp [32]uint64
	bits.TransposeRows32(ptRows, &mp)
	encryptDiffPlanes(&ma, keyDelta, &mp, delta, n, out)
}

// EncryptCrossDiffPlanes64 is EncryptCrossDiffSliced64 for callers that
// already hold the inputs in plane form: keyPlanes is the transposed
// 64×64 key matrix (plane group 16w..16w+15 = bits of key word w across
// lanes, the Transpose64 image of PackKeyRow rows) and ptPlanes the
// 32-plane plaintext (planes 0..15 = X bits, 16..31 = Y bits, the
// TransposeRows32 image of PackBlockRow rows). The batched-draw sampler
// builds these directly from column-major PRNG draws via
// bits.TransposeTop16Pair, skipping the per-row pack + transpose. Both
// plane arrays are clobbered.
func EncryptCrossDiffPlanes64(keyPlanes *[64]uint64, keyDelta Key, ptPlanes *[32]uint64, delta Block, n int, out *[64]uint32) {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("simon: invalid round count %d", n))
	}
	encryptDiffPlanes(keyPlanes, keyDelta, ptPlanes, delta, n, out)
}

func encryptDiffPlanes(ma *[64]uint64, keyDelta Key, mp *[32]uint64, delta Block, n int, out *[64]uint32) {
	// Schedule ring viewed in place over the key planes.
	ska := schedSlots(ma)
	skb := ska
	var mb [64]uint64
	sameKey := keyDelta.IsZero()
	if !sameKey {
		// The second chain's key planes are the first's with the ∇
		// planes complemented; it then runs its own schedule ring.
		mb = *ma
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
	xa, ya := (*[16]uint64)(mp[0:16]), (*[16]uint64)(mp[16:32])
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
