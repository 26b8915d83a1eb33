package core

// This file provides scenarios for the additional targets the paper
// points at: GIFT (named in the conclusion as the Markov cipher to try
// next) and the two non-Markov stream ciphers of Section 2.1, Salsa20
// and Trivium. Each reuses the same Algorithm 2 machinery as the GIMLI
// headline experiments.

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/gift"
	"repro/internal/prng"
	"repro/internal/salsa"
	"repro/internal/trivium"
)

// Gift64Scenario is a real-vs-random distinguisher for round-reduced
// GIFT-64: class 1 samples are output differences of the keyed cipher
// under a fixed plaintext difference (fresh random key per sample),
// class 0 samples are uniform 64-bit differences.
type Gift64Scenario struct {
	Rounds int
	Delta  uint64
}

// NewGift64Scenario builds the scenario with a single-bit plaintext
// difference (bit 1, i.e. one active S-box).
func NewGift64Scenario(rounds int) (*Gift64Scenario, error) {
	if rounds < 1 || rounds > gift.Rounds64 {
		return nil, fmt.Errorf("core: invalid GIFT-64 round count %d", rounds)
	}
	return &Gift64Scenario{Rounds: rounds, Delta: 0x2}, nil
}

// Name identifies the scenario.
func (s *Gift64Scenario) Name() string { return fmt.Sprintf("gift64-%dr-real-vs-random", s.Rounds) }

// Classes returns 2 (real, random).
func (s *Gift64Scenario) Classes() int { return 2 }

// FeatureLen returns 64.
func (s *Gift64Scenario) FeatureLen() int { return 64 }

// SampleBatch writes a real output difference for class 1 (fresh
// random key, random plaintext P, encryptions of P and P ⊕ Delta) and a
// uniformly random 64-bit difference for class 0. Feature bit i is bit
// i of the difference, so the difference is the row word.
func (s *Gift64Scenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		dst[0] = r.Uint64()
		return
	}
	var c gift.Cipher64
	c.Expand([8]uint16{
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
	})
	p := r.Uint64()
	dst[0] = c.EncryptRounds(p, s.Rounds) ^ c.EncryptRounds(p^s.Delta, s.Rounds)
}

// SliceRows returns the bitsliced window: 64 encryption lanes plus
// their interleaved class-0 rows.
func (s *Gift64Scenario) SliceRows() int { return 2 * gift.SlicedLanes64 }

// SampleSlice fills one 128-row window through the ×64 bitsliced
// differential kernel, replacing 128 table-driven scalar encryptions
// (each paying a full 28-round schedule expansion) with one fused
// plane walk. Row j draws from its positional substream exactly as
// SampleBatch would — class 0 one word, class 1 eight 16-bit key words
// then the plaintext word — but each class is one vectorized
// prng.DrawWords64Strided call over the window's 64 substreams, with
// the key columns transposed pairwise into the kernel's plane matrices
// and the plaintext column transposed whole.
func (s *Gift64Scenario) SampleSlice(_ *prng.Rand, base uint64, firstRow int, dst []uint64, y []int) {
	off0 := firstRow & 1
	off1 := 1 - off0
	var rnd [gift.SlicedLanes64]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off0), 2, gift.SlicedLanes64, 1, rnd[:])
	for l := 0; l < gift.SlicedLanes64; l++ {
		dst[off0+2*l] = rnd[l]
	}
	var cols [9 * gift.SlicedLanes64]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off1), 2, gift.SlicedLanes64, 9, cols[:])
	var mkLo, mkHi [64]uint64
	bits.TransposeTop16Pair((*[64]uint64)(cols[0:64]), (*[64]uint64)(cols[64:128]), (*[32]uint64)(mkLo[0:32]))
	bits.TransposeTop16Pair((*[64]uint64)(cols[128:192]), (*[64]uint64)(cols[192:256]), (*[32]uint64)(mkLo[32:64]))
	bits.TransposeTop16Pair((*[64]uint64)(cols[256:320]), (*[64]uint64)(cols[320:384]), (*[32]uint64)(mkHi[0:32]))
	bits.TransposeTop16Pair((*[64]uint64)(cols[384:448]), (*[64]uint64)(cols[448:512]), (*[32]uint64)(mkHi[32:64]))
	pt := (*[64]uint64)(cols[512:576])
	bits.Transpose64(pt)
	var out [gift.SlicedLanes64]uint64
	gift.EncryptDiffPlanes64(&mkLo, &mkHi, pt, s.Delta, s.Rounds, &out)
	for l := 0; l < gift.SlicedLanes64; l++ {
		dst[off1+2*l] = out[l]
	}
	for i := range y {
		y[i] = (firstRow + i) & 1
	}
}

// Compile-time check that the bitsliced window stays wired up.
var _ SliceScenario = (*Gift64Scenario)(nil)

// NewSalsaScenario builds a t = 2 scenario over the round-reduced
// Salsa20 core: the two input differences flip the least significant
// bit of byte 4 and byte 12 (mirroring the paper's GIMLI byte
// positions, here landing in different state words), and the feature
// vector is the 512-bit output difference of the feedforward core.
func NewSalsaScenario(rounds int) (*FuncScenario, error) {
	if rounds < 0 || rounds > salsa.FullRounds || rounds%2 != 0 {
		return nil, fmt.Errorf("core: Salsa round count must be even and ≤ %d, got %d", salsa.FullRounds, rounds)
	}
	d0 := make([]byte, salsa.StateBytes)
	d1 := make([]byte, salsa.StateBytes)
	d0[4] = 0x01
	d1[12] = 0x01
	f := func(p []byte) []byte { return salsa.Core(p, rounds) }
	return NewFuncScenario(fmt.Sprintf("salsa-core-%dr-t2", rounds), f,
		salsa.StateBytes, salsa.StateBytes, [][]byte{d0, d1})
}

// TriviumScenario classifies keystream-prefix differences of
// reduced-initialization Trivium under two chosen IV differences
// (fresh random key and IV per sample) — the natural transplant of the
// paper's nonce-respecting GIMLI-CIPHER experiment onto a stream
// cipher where "rounds" are warm-up clocks.
type TriviumScenario struct {
	InitClocks int
	PrefixLen  int
	Deltas     [][]byte
}

// NewTriviumScenario builds the scenario with IV differences at byte 1
// and byte 9 and a 16-byte keystream prefix.
func NewTriviumScenario(initClocks int) (*TriviumScenario, error) {
	if initClocks < 0 || initClocks > trivium.FullInitClocks {
		return nil, fmt.Errorf("core: Trivium init clocks must be in [0, %d], got %d", trivium.FullInitClocks, initClocks)
	}
	d0 := make([]byte, trivium.IVBytes)
	d1 := make([]byte, trivium.IVBytes)
	d0[1] = 0x01
	d1[9] = 0x01
	return &TriviumScenario{InitClocks: initClocks, PrefixLen: 16, Deltas: [][]byte{d0, d1}}, nil
}

// Name identifies the scenario.
func (s *TriviumScenario) Name() string {
	return fmt.Sprintf("trivium-%dclk-t%d", s.InitClocks, len(s.Deltas))
}

// Classes returns t.
func (s *TriviumScenario) Classes() int { return len(s.Deltas) }

// FeatureLen returns the keystream prefix length in bits.
func (s *TriviumScenario) FeatureLen() int { return s.PrefixLen * 8 }

// SampleBatch writes the keystream-prefix difference for an IV pair
// differing by δ_class under a fresh random key.
func (s *TriviumScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	key := r.Bytes(trivium.KeyBytes)
	iv := r.Bytes(trivium.IVBytes)
	a, err := trivium.Prefix(key, iv, s.InitClocks, s.PrefixLen)
	if err != nil {
		panic(fmt.Sprintf("core: trivium sample: %v", err))
	}
	bits.XOR(iv, iv, s.Deltas[class])
	b, err := trivium.Prefix(key, iv, s.InitClocks, s.PrefixLen)
	if err != nil {
		panic(fmt.Sprintf("core: trivium sample: %v", err))
	}
	bits.PackBytes(dst, bits.XORBytes(a, b))
}
