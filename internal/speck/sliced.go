package speck

// This file implements the bitsliced SPECK-32/64 difference kernel
// behind the dataset-generation fast path: independent (key, plaintext)
// lanes arrive in bit-plane form — plane i holds bit i of a 16-bit
// word across all 64 lanes — and the ARX round function is evaluated
// once per plane, so every XOR, AND and carry step advances all 64
// lanes simultaneously. Rotations cost nothing at all: they are a
// renaming of plane indices. This is the classic bitslicing trick of
// Gohr-style dataset pipelines, where 10^7 plaintext pairs have to be
// pushed through a round-reduced cipher per training run.
//
// The kernel is bit-identical to the scalar path by construction —
// every plane operation is the truth table of the corresponding scalar
// word operation, with the 16-bit modular addition expanded into its
// ripple-carry form — and sliced_test.go verifies lane-for-lane
// equality against two scalar EncryptRounds calls for every round
// count.

import (
	"fmt"

	"repro/internal/bits"
)

// SlicedLanes is the lane count of EncryptDiffPlanes128, the width the
// SPECK scenario's packed sampler batches by.
const SlicedLanes = 128

// EncryptDiffPlanes128 is the ×128 differential-sampler kernel: for
// each lane l it computes
//
//	EncryptRounds(p[l], n) ⊕ EncryptRounds(p[l] ⊕ delta, n)
//
// under lane l's own key schedule, returning the output differences as
// X ‖ Y<<16 words (the packed-row bit layout of the SPECK scenario).
//
// Inputs arrive in plane form per 64-lane group: key0/key1 hold lanes
// 0..63 and 64..127, with plane 16w+b = bit b of key word w (the word
// order New takes: l2, l1, l0, k0) across the group's lanes; pt0/pt1
// hold the plaintexts, planes 0..15 the X bits and 16..31 the Y bits.
// The batched-draw sampler builds them straight from column-major PRNG
// draws via bits.TransposeTop16Pair. All four plane arrays are
// clobbered.
//
// On amd64 with AVX2 both δ-partner states of both groups run as one
// interleaved-plane pass in assembly (sliced_amd64.s), four plane words
// per vector op. Everywhere else the two groups run through the
// portable plane kernel independently; every lane is positionally
// independent, so the two paths are bit-identical, which the tests pin
// on AVX2 machines.
func EncryptDiffPlanes128(key0, key1 *[64]uint64, pt0, pt1 *[32]uint64, delta Block, n int, out *[128]uint32) {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("speck: invalid round count %d", n))
	}
	if encryptDiffPlanes128Accel(key0, key1, pt0, pt1, delta, n, out) {
		return
	}
	encryptDiffPlanes(key0, pt0, delta, n, (*[64]uint32)(out[0:64]))
	encryptDiffPlanes(key1, pt1, delta, n, (*[64]uint32)(out[64:128]))
}

// slicedState holds one 32-bit SPECK block for each of 64 lanes in
// bit-plane form: bit l of X[i] is bit i of lane l's X word, and
// likewise for Y.
type slicedState struct {
	X, Y [16]uint64
}

// encryptDiffPlanes is the portable ×64 kernel behind
// EncryptDiffPlanes128: one 64-lane group, same plane layouts, both
// plane arrays clobbered.
//
// Everything is software-pipelined into one pass: the schedule step
// that produces round key r+1 runs right after encryption round r, so
// the schedule's ripple-carry chain — the kernel's longest serial
// dependency — overlaps the two encryption chains in the out-of-order
// window instead of running latency-bound up front, and only the n
// round keys the reduced regime uses are ever computed. The l-chain
// and round-key planes live inside the key planes themselves and are
// updated in place (the seven plane words a schedule step would
// clobber before reading are preloaded into registers); the per-round
// state buffers ping-pong, so no planes are copied inside the loop.
func encryptDiffPlanes(keyPlanes *[64]uint64, mp *[32]uint64, delta Block, n int, out *[64]uint32) {
	// Key planes viewed in place: l2 ‖ l1 ‖ l0 ‖ rk0 plane groups. lp
	// is the l-chain ring buffer — the schedule recurrence reads l[i]
	// three steps after writing it, so the three slots cycle.
	m := keyPlanes
	l2 := (*[16]uint64)(m[0:16])
	l1 := (*[16]uint64)(m[16:32])
	l0 := (*[16]uint64)(m[32:48])
	rkcur := (*[16]uint64)(m[48:64])
	lp := [3]*[16]uint64{l0, l1, l2}
	var rkalt [16]uint64
	rknext := &rkalt

	// The δ-partner differs by a complement of the planes where delta
	// has a 1.
	var a0, a1, b0, b1 slicedState
	copy(a0.X[:], mp[0:16])
	copy(a0.Y[:], mp[16:32])
	for i := uint(0); i < 16; i++ {
		b0.X[i] = a0.X[i] ^ -uint64(delta.X>>i&1)
		b0.Y[i] = a0.Y[i] ^ -uint64(delta.Y>>i&1)
	}
	ca, na := &a0, &a1
	cb, nb := &b0, &b1

	for r := 0; r < n; r++ {
		// Encryption round r for both states, fused per bit: new Y
		// needs only old Y (at the rotated index) and the new X bit
		// just computed.
		rk := rkcur
		var carA, carB uint64
		for i := uint(0); i < 16; i++ {
			j := (i + alpha) & 15
			jy := (i - beta) & 15
			ava, avb := ca.X[j], cb.X[j]
			bva, bvb := ca.Y[i], cb.Y[i]
			k := rk[i]
			sa := ava ^ bva
			sb := avb ^ bvb
			xa := sa ^ carA ^ k
			xb := sb ^ carB ^ k
			carA = (ava & bva) | (carA & sa)
			carB = (avb & bvb) | (carB & sb)
			na.X[i] = xa
			nb.X[i] = xb
			na.Y[i] = ca.Y[jy] ^ xa
			nb.Y[i] = cb.Y[jy] ^ xb
		}
		ca, na = na, ca
		cb, nb = nb, cb
		// Schedule step r → round key r+1:
		//   l[r+3] = (rk[r] + RotR16(l[r], alpha)) ^ r
		//   rk[r+1] = RotL16(rk[r], beta) ^ l[r+3]
		// with the round counter as a branchless plane complement.
		// l[r+3] overwrites l[r]'s slot in place: bits 0–8 read planes
		// 7–15 (not yet written), bits 9–15 read planes 0–6, saved
		// below before the loop clobbers them.
		if r+1 < n {
			li := lp[r%3]
			var pre [7]uint64
			copy(pre[:], li[0:7])
			rc := uint64(r)
			var c uint64
			for bit := uint(0); bit < 9; bit++ {
				av := li[bit+7]
				bv := rk[bit]
				sm := av ^ bv
				nbv := sm ^ c ^ -(rc >> bit & 1)
				c = (av & bv) | (c & sm)
				li[bit] = nbv
				rknext[bit] = rk[(bit+14)&15] ^ nbv
			}
			for bit := uint(9); bit < 16; bit++ {
				av := pre[bit-9]
				bv := rk[bit]
				sm := av ^ bv
				nbv := sm ^ c ^ -(rc >> bit & 1)
				c = (av & bv) | (c & sm)
				li[bit] = nbv
				rknext[bit] = rk[bit-2] ^ nbv
			}
			rkcur, rknext = rknext, rkcur
		}
	}

	// Output difference, planes → lanes.
	var od [32]uint64
	for i := 0; i < 16; i++ {
		od[i] = ca.X[i] ^ cb.X[i]
		od[i+16] = ca.Y[i] ^ cb.Y[i]
	}
	bits.UntransposeRows32(&od, out)
}
