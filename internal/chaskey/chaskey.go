// Package chaskey implements the Chaskey permutation and MAC of
// Mouha et al. ("Chaskey: An Efficient MAC Algorithm for 32-bit
// Microcontrollers", SAC 2014). Chaskey is an ARX even-odd sibling of
// SipHash with a 128-bit state, and the target Zhang & Wang extend
// Gohr-style neural distinguishers to; this repository's chaskey
// scenario distinguishes its round-reduced permutation the same way
// the gimli scenarios treat their permutation.
//
// The state is four 32-bit words (v0, v1, v2, v3), serialized
// little-endian word by word. One round is the SipHash-like ARX
// network
//
//	v0 += v1; v1 ⋘= 5;  v1 ^= v0; v0 ⋘= 16
//	v2 += v3; v3 ⋘= 8;  v3 ^= v2
//	v0 += v3; v3 ⋘= 13; v3 ^= v0
//	v2 += v1; v1 ⋘= 7;  v1 ^= v2; v2 ⋘= 16
//
// The standard MAC uses 8 rounds (Chaskey-LTS uses 12); distinguishers
// operate on 3–5 round versions, so round counts are first-class.
package chaskey

import (
	"fmt"

	"repro/internal/bits"
)

// Rounds is the permutation round count of the standard Chaskey MAC.
const Rounds = 8

// LTSRounds is the round count of the long-term-security variant.
const LTSRounds = 12

// StateBytes is the size of the serialized state.
const StateBytes = 16

// State is the 128-bit Chaskey state (v0, v1, v2, v3).
type State [4]uint32

// XOR returns the word-wise XOR of two states — the difference used in
// differential cryptanalysis of the permutation.
func (s State) XOR(o State) State {
	return State{s[0] ^ o[0], s[1] ^ o[1], s[2] ^ o[2], s[3] ^ o[3]}
}

// Bytes serializes the state as v0 ‖ v1 ‖ v2 ‖ v3, each little-endian.
func (s State) Bytes() []byte {
	b := make([]byte, StateBytes)
	for i, v := range s {
		bits.Store32LE(b[4*i:], v)
	}
	return b
}

// StateFromBytes deserializes Bytes.
func StateFromBytes(p []byte) State {
	_ = p[StateBytes-1]
	var s State
	for i := range s {
		s[i] = bits.Load32LE(p[4*i:])
	}
	return s
}

// Permute applies n rounds of the Chaskey permutation. n must be in
// [0, 12]: the LTS round count bounds every variant in the literature,
// and the distinguisher scenarios stay well below it.
func Permute(s State, n int) State {
	if n < 0 || n > LTSRounds {
		panic(fmt.Sprintf("chaskey: invalid round count %d", n))
	}
	v0, v1, v2, v3 := s[0], s[1], s[2], s[3]
	for i := 0; i < n; i++ {
		v0 += v1
		v1 = bits.RotL32(v1, 5) ^ v0
		v0 = bits.RotL32(v0, 16)
		v2 += v3
		v3 = bits.RotL32(v3, 8) ^ v2
		v0 += v3
		v3 = bits.RotL32(v3, 13) ^ v0
		v2 += v1
		v1 = bits.RotL32(v1, 7) ^ v2
		v2 = bits.RotL32(v2, 16)
	}
	return State{v0, v1, v2, v3}
}

// InvPermute inverts Permute for the same round count.
func InvPermute(s State, n int) State {
	if n < 0 || n > LTSRounds {
		panic(fmt.Sprintf("chaskey: invalid round count %d", n))
	}
	v0, v1, v2, v3 := s[0], s[1], s[2], s[3]
	for i := 0; i < n; i++ {
		v2 = bits.RotR32(v2, 16)
		v1 = bits.RotR32(v1^v2, 7)
		v2 -= v1
		v3 = bits.RotR32(v3^v0, 13)
		v0 -= v3
		v3 = bits.RotR32(v3^v2, 8)
		v2 -= v3
		v0 = bits.RotR32(v0, 16)
		v1 = bits.RotR32(v1^v0, 5)
		v0 -= v1
	}
	return State{v0, v1, v2, v3}
}

// NDDelta is the input difference (0, 0x80000000, 0, 0) used by the
// distinguisher scenario: flipping the most significant bit of v1
// propagates through the round's first modular addition with
// probability 1 (the carry out of bit 31 is discarded), so the
// difference stays low-weight for the opening half-round and the
// learnable structure survives more rounds.
var NDDelta = State{0, 0x80000000, 0, 0}

// timesTwo multiplies a 128-bit value by x in GF(2^128) with the
// standard reduction polynomial x^128 + x^7 + x^2 + x + 1, the subkey
// derivation of the Chaskey MAC (two left shifts: k1 = 2k, k2 = 2k1).
func timesTwo(k State) State {
	var o State
	carry := k[3] >> 31
	o[3] = k[3]<<1 | k[2]>>31
	o[2] = k[2]<<1 | k[1]>>31
	o[1] = k[1]<<1 | k[0]>>31
	o[0] = k[0]<<1 ^ carry*0x87
	return o
}

// MAC computes the n-round Chaskey tag of msg under the 16-byte key,
// returning the full 16-byte tag (callers truncate to their tag
// length). n is Rounds for standard Chaskey and LTSRounds for
// Chaskey-LTS. Only the KAT harness and tests call this; the
// distinguisher scenarios work on the bare permutation.
func MAC(key []byte, msg []byte, n int) []byte {
	if len(key) != StateBytes {
		panic(fmt.Sprintf("chaskey: key must be %d bytes, got %d", StateBytes, len(key)))
	}
	k := StateFromBytes(key)
	k1 := timesTwo(k)
	k2 := timesTwo(k1)

	v := k
	// All full blocks except a final complete block are absorbed with
	// the permutation alone; the last block (complete → k1, partial or
	// empty → 10* padding and k2) is whitened before and after.
	for len(msg) > StateBytes {
		v = Permute(v.XOR(StateFromBytes(msg)), n)
		msg = msg[StateBytes:]
	}
	last := k2
	var block [StateBytes]byte
	if len(msg) == StateBytes {
		last = k1
		copy(block[:], msg)
	} else {
		copy(block[:], msg)
		block[len(msg)] = 0x01
	}
	v = Permute(v.XOR(StateFromBytes(block[:])).XOR(last), n)
	return v.XOR(last).Bytes()
}
