package gift

// This file implements the bitsliced ×64 GIFT-64 difference kernel
// behind the dataset-generation fast path. GIFT is the ideal bitslice
// target of the cipher suite: SubCells becomes a 7-gate boolean
// circuit over the four planes of every nibble (the same circuit for
// all 16 nibbles, all 64 lanes per gate), PermBits — the expensive half
// of the scalar round — vanishes into the writeback indices of that
// circuit, and AddRoundKey is 32 plane XORs plus branchless constant
// complements.
// The key schedule never computes anything: GIFT's rotation
// k7‖…‖k0 ← (k1 ⋙ 2)‖(k0 ⋙ 12)‖k7‖…‖k2 only moves words around, so
// the sliced schedule is bookkeeping over eight {plane group, rotation
// offset} slots, with logical bit b of a word living in plane
// g[(b+off)&15] and a ⋙ r costing off ← off + r. Bit-identity with
// the scalar path is pinned by sliced_test.go for every round count.

import (
	"fmt"

	"repro/internal/bits"
)

// SlicedLanes64 is the lane count of EncryptDiffPlanes64.
const SlicedLanes64 = 64

// keySlot locates one schedule word: its 16 planes and the rotation
// offset accumulated by the ⋙ 2 / ⋙ 12 steps it has passed through.
type keySlot struct {
	g   *[16]uint64
	off uint
}

// keySlots views the two key plane matrices as the eight schedule word
// slots, key word order.
func keySlots(mkLo, mkHi *[64]uint64) [8]keySlot {
	return [8]keySlot{
		{(*[16]uint64)(mkLo[0:16]), 0},
		{(*[16]uint64)(mkLo[16:32]), 0},
		{(*[16]uint64)(mkLo[32:48]), 0},
		{(*[16]uint64)(mkLo[48:64]), 0},
		{(*[16]uint64)(mkHi[0:16]), 0},
		{(*[16]uint64)(mkHi[16:32]), 0},
		{(*[16]uint64)(mkHi[32:48]), 0},
		{(*[16]uint64)(mkHi[48:64]), 0},
	}
}

// subCellsPerm applies SubCells and PermBits to one state in plane
// form: the GIFT S-box as a 7-gate circuit over each nibble's four
// planes, with the bit permutation folded into the writeback indices —
// output bit 4j+b of SubCells lands directly in plane perm64(4j+b).
// The circuit is verified gate for gate against SBox by the tests.
// ns must not alias s.
func subCellsPerm(ns, s *[64]uint64) {
	for j := 0; j < 16; j++ {
		s0, s1, s2, s3 := s[4*j], s[4*j+1], s[4*j+2], s[4*j+3]
		s1 ^= s0 & s2
		s0 ^= s1 & s3
		s2 ^= s0 | s1
		s3 ^= s2
		s1 ^= s3
		s3 = ^s3
		s2 ^= s0 & s1
		ns[Perm64Table[4*j]] = s3
		ns[Perm64Table[4*j+1]] = s1
		ns[Perm64Table[4*j+2]] = s2
		ns[Perm64Table[4*j+3]] = s0
	}
}

// addRoundKeySliced XORs round material into a state's planes: U into
// planes 4i+1 through its slot's offset rename, V into planes 4i, the
// 6-bit round constant and the fixed top bit as plane complements.
func addRoundKeySliced(sp *[64]uint64, u, v keySlot, rc byte) {
	for i := uint(0); i < 16; i++ {
		sp[4*i+1] ^= u.g[(i+u.off)&15]
		sp[4*i] ^= v.g[(i+v.off)&15]
	}
	for j := uint(0); j < 6; j++ {
		sp[4*j+3] ^= -uint64(rc >> j & 1)
	}
	sp[63] ^= ^uint64(0)
}

// encryptSlicedStates runs n rounds over two state plane sets under one
// shared key schedule (the differential sampler's two states use the
// same per-lane keys). Explicit pointer parameters — not a
// []*[64]uint64 — and a by-value slot array (the rotation writes
// pointers into it every round) keep escape analysis happy: callers'
// plane arrays stay on their stacks. The returned pointers hold the
// final planes (state and scratch swap each round, so they may be
// either input buffer).
func encryptSlicedStates(slots [8]keySlot, sa, ta, sb, tb *[64]uint64, n int) (ra, rb *[64]uint64) {
	state6 := byte(0)
	for r := 0; r < n; r++ {
		u, v := slots[6], slots[7]
		state6 = (state6<<1 | (state6>>5^state6>>4^1)&1) & 0x3f
		subCellsPerm(ta, sa)
		sa, ta = ta, sa
		addRoundKeySliced(sa, u, v, state6)
		subCellsPerm(tb, sb)
		sb, tb = tb, sb
		addRoundKeySliced(sb, u, v, state6)
		// Schedule rotation: pure slot movement, u and v re-enter at the
		// bottom with their word rotations folded into the offsets. An
		// explicit shift rather than copy(): escape analysis treats a
		// copy of pointer-carrying elements as a leak, which would force
		// every caller's plane arrays to the heap.
		for i := 7; i >= 2; i-- {
			slots[i] = slots[i-2]
		}
		slots[0] = keySlot{u.g, (u.off + 2) & 15}
		slots[1] = keySlot{v.g, (v.off + 12) & 15}
	}
	return sa, sb
}

// EncryptDiffPlanes64 is the fused differential-sampler kernel: for
// each lane l it computes
//
//	EncryptRounds(p[l], n) ⊕ EncryptRounds(p[l] ⊕ delta, n)
//
// under lane l's own key, with one shared schedule walk for both
// states. Inputs arrive in plane form: keyLo holds key words 0..3 and
// keyHi words 4..7 (the word order NewCipher64 takes, key[0] = k7),
// plane 16j+b of each = bit b of its j-th word across the 64 lanes; pt
// holds state bit i across the lanes in plane i. The batched-draw
// sampler builds these directly from column-major PRNG draws. All three
// plane arrays are clobbered.
func EncryptDiffPlanes64(keyLo, keyHi, pt *[64]uint64, delta uint64, n int, out *[64]uint64) {
	if n < 0 || n > Rounds64 {
		panic(fmt.Sprintf("gift: invalid GIFT-64 round count %d", n))
	}
	slots := keySlots(keyLo, keyHi)

	// The δ-partner is the same state matrix with the planes where
	// delta has a 1 complemented.
	sb := *pt
	for i := uint(0); i < 64; i++ {
		sb[i] ^= -(delta >> i & 1)
	}
	var ta, tb [64]uint64
	fa, fb := encryptSlicedStates(slots, pt, &ta, &sb, &tb, n)

	// Output difference, planes → lanes (Transpose64 is an involution).
	var od [64]uint64
	for i := 0; i < 64; i++ {
		od[i] = fa[i] ^ fb[i]
	}
	bits.Transpose64(&od)
	*out = od
}
