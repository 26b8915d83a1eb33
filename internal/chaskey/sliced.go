package chaskey

// This file implements the bitsliced ×64 Chaskey differential kernel
// behind the dataset-generation fast path. Chaskey is pure ARX on
// 32-bit words, so the plane form needs exactly two primitives: the
// shared ripple-carry adder bits.AddPlanes32 for the modular sums, and
// XOR. Rotations never move data — each state word carries a rotation
// offset, logical bit j of word w living in plane w[(j+off)&31], and a
// RotL32 by r is off ← off − r. The adder takes both operands'
// offsets as plane-index renames and resets its destination's offset
// to zero, so a full round is three adder calls, four offset-renamed
// XOR sweeps and three bookkeeping updates.
//
// Both δ-partner states run the identical offset trajectory, which
// makes the output difference a plane-wise XOR under one shared
// offset. On amd64 a word-sliced AVX2 kernel (sliced_amd64.s) replaces
// the plane walk entirely — VPADDD gives native 32-bit lane adds, so
// slicing to bit planes buys nothing there — and the tests pin both
// paths lane-for-lane against two scalar Permute calls.

import (
	"fmt"

	"repro/internal/bits"
)

// SlicedLanes is the lane count of PermuteDiffDrawCols64.
const SlicedLanes = 64

// PermuteDiffDrawCols64 is the fused differential-sampler kernel: for
// each lane l it computes
//
//	Permute(V[l], n) ⊕ Permute(V[l] ⊕ delta, n)
//
// returning the 64 output differences as packed rows outLo = v0 ‖ v1<<32
// and outHi = v2 ‖ v3<<32, the packed-row bit layout of the Chaskey
// scenario. The states arrive as raw column-major batch draws:
// cols[w*64+l] is a full Uint64 generator output whose top 32 bits are
// state word v_w of lane l (a positional Uint32 draw is Uint64 >> 32),
// so the truncation folds into the kernel's own lane split instead of
// costing the sampler a conversion pass. cols is not modified.
//
// On amd64 with AVX2 the word-sliced kernel in sliced_amd64.s runs the
// rounds; everywhere else the draws transpose into bit planes for the
// portable plane kernel below.
func PermuteDiffDrawCols64(cols *[4 * SlicedLanes]uint64, delta State, n int, outLo, outHi *[64]uint64) {
	if n < 0 || n > LTSRounds {
		panic(fmt.Sprintf("chaskey: invalid round count %d", n))
	}
	if permuteDiffColsAccel(cols, delta, n, outLo, outHi) {
		return
	}
	var words [4][SlicedLanes]uint32
	for w := 0; w < 4; w++ {
		for l := 0; l < SlicedLanes; l++ {
			words[w][l] = uint32(cols[w*SlicedLanes+l] >> 32)
		}
	}
	var maLo, maHi [64]uint64
	bits.TransposeRows32(&words[0], (*[32]uint64)(maLo[0:32]))
	bits.TransposeRows32(&words[1], (*[32]uint64)(maLo[32:64]))
	bits.TransposeRows32(&words[2], (*[32]uint64)(maHi[0:32]))
	bits.TransposeRows32(&words[3], (*[32]uint64)(maHi[32:64]))
	permuteDiffPlanesCore(&maLo, &maHi, delta, n, outLo, outHi)
}

// slicedState is one δ-partner state in plane form: four word plane
// groups, each word's accumulated rotation offset, and two spare plane
// buffers the adder ping-pongs v0 and v2 through (v1 and v3 are only
// ever XOR targets and stay in their groups for the whole permutation).
type slicedState struct {
	w      [4]*[32]uint64
	t0, t2 *[32]uint64
	o      [4]uint
}

// xorRot is the offset-renamed XOR sweep dst ^= src: with dst's bits at
// offset od and src's at os, plane i of dst pairs with plane (i+d)&31
// of src for d = (os − od) mod 32.
func xorRot(dst, src *[32]uint64, d uint) {
	for i := uint(0); i < 32; i++ {
		dst[i] ^= src[(i+d)&31]
	}
}

// round advances the state one Chaskey round in plane form, mirroring
// Permute line for line: += is the shared ripple-carry adder (operand
// offsets in, destination offset zero out), ⋘ r is off ← off − r, and
// ^= is an offset-renamed sweep.
func (s *slicedState) round() {
	// v0 += v1
	bits.AddPlanes32(s.t0, s.w[0], s.o[0], s.w[1], s.o[1])
	s.w[0], s.t0 = s.t0, s.w[0]
	s.o[0] = 0
	// v1 = v1⋘5 ^ v0
	s.o[1] = (s.o[1] + 27) & 31
	xorRot(s.w[1], s.w[0], (32-s.o[1])&31)
	// v0 ⋘= 16
	s.o[0] = 16
	// v2 += v3
	bits.AddPlanes32(s.t2, s.w[2], s.o[2], s.w[3], s.o[3])
	s.w[2], s.t2 = s.t2, s.w[2]
	s.o[2] = 0
	// v3 = v3⋘8 ^ v2
	s.o[3] = (s.o[3] + 24) & 31
	xorRot(s.w[3], s.w[2], (32-s.o[3])&31)
	// v0 += v3
	bits.AddPlanes32(s.t0, s.w[0], s.o[0], s.w[3], s.o[3])
	s.w[0], s.t0 = s.t0, s.w[0]
	s.o[0] = 0
	// v3 = v3⋘13 ^ v0
	s.o[3] = (s.o[3] + 19) & 31
	xorRot(s.w[3], s.w[0], (32-s.o[3])&31)
	// v2 += v1
	bits.AddPlanes32(s.t2, s.w[2], s.o[2], s.w[1], s.o[1])
	s.w[2], s.t2 = s.t2, s.w[2]
	s.o[2] = 0
	// v1 = v1⋘7 ^ v2
	s.o[1] = (s.o[1] + 25) & 31
	xorRot(s.w[1], s.w[2], (32-s.o[1])&31)
	// v2 ⋘= 16
	s.o[2] = 16
}

// viewState wires a slicedState over two transposed 64×64 matrices
// (lo → v0, v1 planes; hi → v2, v3 planes) and two spare buffers.
func viewState(lo, hi *[64]uint64, t0, t2 *[32]uint64) slicedState {
	return slicedState{
		w: [4]*[32]uint64{
			(*[32]uint64)(lo[0:32]),
			(*[32]uint64)(lo[32:64]),
			(*[32]uint64)(hi[0:32]),
			(*[32]uint64)(hi[32:64]),
		},
		t0: t0,
		t2: t2,
	}
}

// permuteDiffPlanesCore runs the differential permutation on states
// already in plane form (maLo planes 0..31 = v0 bits, 32..63 = v1;
// maHi likewise v2, v3). Both plane matrices are clobbered — they
// become δ-partner a's working state.
func permuteDiffPlanesCore(maLo, maHi *[64]uint64, delta State, n int, outLo, outHi *[64]uint64) {
	// The δ-partner is the same matrix with the planes where delta has
	// a 1 complemented.
	mbLo, mbHi := *maLo, *maHi
	for j := uint(0); j < 32; j++ {
		mbLo[j] ^= -uint64(delta[0] >> j & 1)
		mbLo[32+j] ^= -uint64(delta[1] >> j & 1)
		mbHi[j] ^= -uint64(delta[2] >> j & 1)
		mbHi[32+j] ^= -uint64(delta[3] >> j & 1)
	}

	var sa0, sa2, sb0, sb2 [32]uint64
	a := viewState(maLo, maHi, &sa0, &sa2)
	b := viewState(&mbLo, &mbHi, &sb0, &sb2)
	for r := 0; r < n; r++ {
		a.round()
		b.round()
	}

	// Output difference under the shared offset trajectory, planes →
	// lanes. Transpose64 is an involution, so it maps back to rows.
	var dLo, dHi [64]uint64
	for j := uint(0); j < 32; j++ {
		dLo[j] = a.w[0][(j+a.o[0])&31] ^ b.w[0][(j+b.o[0])&31]
		dLo[32+j] = a.w[1][(j+a.o[1])&31] ^ b.w[1][(j+b.o[1])&31]
		dHi[j] = a.w[2][(j+a.o[2])&31] ^ b.w[2][(j+b.o[2])&31]
		dHi[32+j] = a.w[3][(j+a.o[3])&31] ^ b.w[3][(j+b.o[3])&31]
	}
	bits.Transpose64(&dLo)
	bits.Transpose64(&dHi)
	*outLo = dLo
	*outHi = dHi
}
