package core

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/chaskey"
	"repro/internal/prng"
	"repro/internal/simeck"
	"repro/internal/simon"
)

// This file holds the new-cipher sweep scenarios: SIMON-32/64 and
// SIMECK-32/64 (each with an optional related-key difference ∇ in the
// style of Lu et al.) and the Chaskey permutation (the Zhang & Wang
// direction). All are Gohr-style real-vs-random scenarios like
// SpeckScenario: class 1 is a true round-reduced output difference
// under a fresh random key per sample, class 0 a uniformly random
// difference of the same width.

// SimonScenario distinguishes round-reduced SIMON-32/64 output
// differences from random, optionally under a related-key difference:
// when KeyD is nonzero, the second encryption of each class-1 sample
// runs under K ⊕ KeyD, which with the canonical (δ, ∇) choice cancels
// the state difference for the first four rounds and lets
// distinguishers reach several rounds beyond the single-key setting.
type SimonScenario struct {
	Rounds int
	Delta  simon.Block // plaintext difference δ
	KeyD   simon.Key   // related-key difference ∇; zero = single-key
}

// NewSimonScenario builds the single-key baseline for the given rounds
// with the standard input difference (0x0000, 0x0040).
func NewSimonScenario(rounds int) (*SimonScenario, error) {
	return CustomSimonScenario(rounds, simon.NDDelta, simon.Key{})
}

// NewSimonRKScenario builds the related-key variant for the given
// rounds with the Lu et al.-style pair δ = (0x0000, 0x0040),
// ∇ = (0, 0, 0, 0x0040): ∇ cancels δ in round 1 and the key schedule
// re-injects it at round 5.
func NewSimonRKScenario(rounds int) (*SimonScenario, error) {
	return CustomSimonScenario(rounds, simon.NDDelta, simon.LuKeyDelta)
}

// CustomSimonScenario validates and builds an arbitrary-difference
// SIMON scenario. δ = 0 with ∇ ≠ 0 is the pure related-key
// construction and is allowed; both zero would make the two encryptions
// identical and is rejected.
func CustomSimonScenario(rounds int, delta simon.Block, keyDelta simon.Key) (*SimonScenario, error) {
	if rounds < 1 || rounds > simon.Rounds {
		return nil, fmt.Errorf("core: invalid SIMON round count %d", rounds)
	}
	if delta == (simon.Block{}) && keyDelta.IsZero() {
		return nil, fmt.Errorf("core: SIMON scenario needs a nonzero plaintext or key difference")
	}
	return &SimonScenario{Rounds: rounds, Delta: delta, KeyD: keyDelta}, nil
}

// Name identifies the scenario; related-key instances carry an -rk tag.
func (s *SimonScenario) Name() string {
	if s.KeyD.IsZero() {
		return fmt.Sprintf("simon32-%dr-real-vs-random", s.Rounds)
	}
	return fmt.Sprintf("simon32-%dr-rk-real-vs-random", s.Rounds)
}

// Classes returns 2 (real, random).
func (s *SimonScenario) Classes() int { return 2 }

// FeatureLen returns 32: one block difference.
func (s *SimonScenario) FeatureLen() int { return 32 }

// KeyDelta returns ∇ in the simon.NewFromBytes big-endian word layout.
func (s *SimonScenario) KeyDelta() []byte {
	b := make([]byte, 2*simon.KeyWords)
	for i, w := range s.KeyD {
		b[2*i], b[2*i+1] = byte(w>>8), byte(w)
	}
	return b
}

// DrawWords declares the generator layout: class 0 draws one word (the
// 32-bit random difference), class 1 draws six (four 16-bit key words,
// then the two 16-bit plaintext words; each 16-bit draw consumes one
// 64-bit output).
func (s *SimonScenario) DrawWords(class int) int {
	if class == 0 {
		return 1
	}
	return 6
}

// SampleBatch writes a real output difference for class 1 and a
// uniformly random 32-bit difference for class 0. Class 1 draws a key K
// and a plaintext P and encrypts P under K and P ⊕ Delta under
// K ⊕ KeyD (under K again when KeyD is zero).
func (s *SimonScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		dst[0] = r.Uint64() & 0xffffffff
		return
	}
	k := simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	p := simon.Block{X: r.Uint16(), Y: r.Uint16()}
	var ca, cb simon.Cipher
	ca.Expand(k)
	second := &ca
	if !s.KeyD.IsZero() {
		cb.Expand(k.XOR(s.KeyD))
		second = &cb
	}
	d := ca.EncryptRounds(p, s.Rounds).XOR(second.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	dst[0] = uint64(d.X) | uint64(d.Y)<<16
}

// SliceRows returns the bitsliced window: 64 encryption lanes, and at
// t = 2 every other row is a cheap random sample, so one window is 128
// rows.
func (s *SimonScenario) SliceRows() int { return 2 * simon.SlicedLanes }

// SampleSlice fills one 128-row window through the ×64 bitsliced
// differential kernel. Row j draws from its positional substream
// exactly as SampleBatch would — class 0 one word, class 1 six 16-bit
// words — but the draws run through the vectorized batch kernel: each
// class is one strided prng.DrawWords64Strided call over the window's
// 64 substreams, and the class-1 draw columns transpose straight into
// the kernel's bit planes via bits.TransposeTop16Pair (a Uint16 draw is
// the top 16 bits of its Uint64 output), so no per-row pack or scatter
// remains. All 64 class-1 encryptions then run in one
// EncryptCrossDiffPlanes64 call (∇ = 0 degenerates to the single-key
// kernel inside).
func (s *SimonScenario) SampleSlice(_ *prng.Rand, base uint64, firstRow int, dst []uint64, y []int) {
	// Shard windows can start on either parity; class-1 rows sit at
	// window offsets of the opposite parity to firstRow.
	off0 := firstRow & 1
	off1 := 1 - off0
	var rnd [simon.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off0), 2, simon.SlicedLanes, 1, rnd[:])
	for l := 0; l < simon.SlicedLanes; l++ {
		dst[off0+2*l] = rnd[l] & 0xffffffff
	}
	// Class-1 column w holds draw w (k0, k1, k2, k3, X, Y) of every
	// lane; column pairs become the key plane groups and the pt planes.
	var cols [6 * simon.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off1), 2, simon.SlicedLanes, 6, cols[:])
	var ma [64]uint64
	var mp [32]uint64
	bits.TransposeTop16Pair((*[64]uint64)(cols[0:64]), (*[64]uint64)(cols[64:128]), (*[32]uint64)(ma[0:32]))
	bits.TransposeTop16Pair((*[64]uint64)(cols[128:192]), (*[64]uint64)(cols[192:256]), (*[32]uint64)(ma[32:64]))
	bits.TransposeTop16Pair((*[64]uint64)(cols[256:320]), (*[64]uint64)(cols[320:384]), &mp)
	var out [simon.SlicedLanes]uint32
	simon.EncryptCrossDiffPlanes64(&ma, s.KeyD, &mp, s.Delta, s.Rounds, &out)
	for l := 0; l < simon.SlicedLanes; l++ {
		dst[off1+2*l] = uint64(out[l])
	}
	for i := range y {
		y[i] = (firstRow + i) & 1
	}
}

// SimeckScenario distinguishes round-reduced SIMECK-32/64 output
// differences from random, optionally under a related-key difference;
// it is structured exactly like SimonScenario.
type SimeckScenario struct {
	Rounds int
	Delta  simeck.Block // plaintext difference δ
	KeyD   simeck.Key   // related-key difference ∇; zero = single-key
}

// NewSimeckScenario builds the single-key baseline for the given rounds
// with the standard input difference (0x0000, 0x0002).
func NewSimeckScenario(rounds int) (*SimeckScenario, error) {
	return CustomSimeckScenario(rounds, simeck.NDDelta, simeck.Key{})
}

// NewSimeckRKScenario builds the related-key variant with the
// Lu et al.-style pair δ = (0x0000, 0x0002), ∇ = (0, 0, 0, 0x0002).
func NewSimeckRKScenario(rounds int) (*SimeckScenario, error) {
	return CustomSimeckScenario(rounds, simeck.NDDelta, simeck.LuKeyDelta)
}

// CustomSimeckScenario validates and builds an arbitrary-difference
// SIMECK scenario under the same rules as CustomSimonScenario.
func CustomSimeckScenario(rounds int, delta simeck.Block, keyDelta simeck.Key) (*SimeckScenario, error) {
	if rounds < 1 || rounds > simeck.Rounds {
		return nil, fmt.Errorf("core: invalid SIMECK round count %d", rounds)
	}
	if delta == (simeck.Block{}) && keyDelta.IsZero() {
		return nil, fmt.Errorf("core: SIMECK scenario needs a nonzero plaintext or key difference")
	}
	return &SimeckScenario{Rounds: rounds, Delta: delta, KeyD: keyDelta}, nil
}

// Name identifies the scenario; related-key instances carry an -rk tag.
func (s *SimeckScenario) Name() string {
	if s.KeyD.IsZero() {
		return fmt.Sprintf("simeck32-%dr-real-vs-random", s.Rounds)
	}
	return fmt.Sprintf("simeck32-%dr-rk-real-vs-random", s.Rounds)
}

// Classes returns 2 (real, random).
func (s *SimeckScenario) Classes() int { return 2 }

// FeatureLen returns 32: one block difference.
func (s *SimeckScenario) FeatureLen() int { return 32 }

// KeyDelta returns ∇ in the simeck.NewFromBytes big-endian word layout.
func (s *SimeckScenario) KeyDelta() []byte {
	b := make([]byte, 2*simeck.KeyWords)
	for i, w := range s.KeyD {
		b[2*i], b[2*i+1] = byte(w>>8), byte(w)
	}
	return b
}

// DrawWords declares the generator layout: one word for class 0, six
// for class 1 (four key words, two plaintext words).
func (s *SimeckScenario) DrawWords(class int) int {
	if class == 0 {
		return 1
	}
	return 6
}

// SampleBatch writes a real output difference for class 1 and a
// uniformly random 32-bit difference for class 0, drawing and keying
// exactly as SimonScenario.SampleBatch does.
func (s *SimeckScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		dst[0] = r.Uint64() & 0xffffffff
		return
	}
	k := simeck.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
	p := simeck.Block{X: r.Uint16(), Y: r.Uint16()}
	var ca, cb simeck.Cipher
	ca.Expand(k)
	second := &ca
	if !s.KeyD.IsZero() {
		cb.Expand(k.XOR(s.KeyD))
		second = &cb
	}
	d := ca.EncryptRounds(p, s.Rounds).XOR(second.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	dst[0] = uint64(d.X) | uint64(d.Y)<<16
}

// SliceRows returns the bitsliced window: 64 encryption lanes plus
// their interleaved class-0 rows.
func (s *SimeckScenario) SliceRows() int { return 2 * simeck.SlicedLanes }

// SampleSlice fills one 128-row window through the ×64 bitsliced
// differential kernel, with the same batched positional draws as
// SimonScenario.SampleSlice: one strided draw call per class, columns
// transposed straight into kernel planes.
func (s *SimeckScenario) SampleSlice(_ *prng.Rand, base uint64, firstRow int, dst []uint64, y []int) {
	off0 := firstRow & 1
	off1 := 1 - off0
	var rnd [simeck.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off0), 2, simeck.SlicedLanes, 1, rnd[:])
	for l := 0; l < simeck.SlicedLanes; l++ {
		dst[off0+2*l] = rnd[l] & 0xffffffff
	}
	var cols [6 * simeck.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off1), 2, simeck.SlicedLanes, 6, cols[:])
	var ma [64]uint64
	var mp [32]uint64
	bits.TransposeTop16Pair((*[64]uint64)(cols[0:64]), (*[64]uint64)(cols[64:128]), (*[32]uint64)(ma[0:32]))
	bits.TransposeTop16Pair((*[64]uint64)(cols[128:192]), (*[64]uint64)(cols[192:256]), (*[32]uint64)(ma[32:64]))
	bits.TransposeTop16Pair((*[64]uint64)(cols[256:320]), (*[64]uint64)(cols[320:384]), &mp)
	var out [simeck.SlicedLanes]uint32
	simeck.EncryptCrossDiffPlanes64(&ma, s.KeyD, &mp, s.Delta, s.Rounds, &out)
	for l := 0; l < simeck.SlicedLanes; l++ {
		dst[off1+2*l] = uint64(out[l])
	}
	for i := range y {
		y[i] = (firstRow + i) & 1
	}
}

// ChaskeyScenario distinguishes the round-reduced Chaskey permutation
// from random, the same treatment the gimli scenarios give their
// permutation: class 1 permutes a random state pair differing by Delta
// and classifies the 128-bit output difference.
type ChaskeyScenario struct {
	Rounds int
	Delta  chaskey.State
}

// NewChaskeyScenario builds the scenario for the given rounds with the
// standard single-bit input difference chaskey.NDDelta.
func NewChaskeyScenario(rounds int) (*ChaskeyScenario, error) {
	return CustomChaskeyScenario(rounds, chaskey.NDDelta)
}

// CustomChaskeyScenario validates and builds an arbitrary-difference
// Chaskey scenario.
func CustomChaskeyScenario(rounds int, delta chaskey.State) (*ChaskeyScenario, error) {
	if rounds < 1 || rounds > chaskey.LTSRounds {
		return nil, fmt.Errorf("core: invalid Chaskey round count %d", rounds)
	}
	if delta == (chaskey.State{}) {
		return nil, fmt.Errorf("core: Chaskey difference is zero")
	}
	return &ChaskeyScenario{Rounds: rounds, Delta: delta}, nil
}

// Name identifies the scenario.
func (s *ChaskeyScenario) Name() string {
	return fmt.Sprintf("chaskey-%dr-real-vs-random", s.Rounds)
}

// Classes returns 2 (real, random).
func (s *ChaskeyScenario) Classes() int { return 2 }

// FeatureLen returns 128: one state difference.
func (s *ChaskeyScenario) FeatureLen() int { return 128 }

// SampleBatch writes a real permutation output difference for class 1
// and a uniformly random 128-bit difference (two generator outputs) for
// class 0. The state serializes little-endian word by word, and the
// packed-row layout is little-endian bit order, so state word w of the
// difference lands in half-word w of dst unchanged (the packRateDiff
// argument).
func (s *ChaskeyScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		dst[0] = r.Uint64()
		dst[1] = r.Uint64()
		return
	}
	v := chaskey.State{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
	d := chaskey.Permute(v, s.Rounds).XOR(chaskey.Permute(v.XOR(s.Delta), s.Rounds))
	dst[0] = uint64(d[0]) | uint64(d[1])<<32
	dst[1] = uint64(d[2]) | uint64(d[3])<<32
}

// SliceRows returns the bitsliced window: 64 permutation lanes plus
// their interleaved class-0 rows.
func (s *ChaskeyScenario) SliceRows() int { return 2 * chaskey.SlicedLanes }

// SampleSlice fills one 128-row window through the ×64 sliced kernel.
// A Chaskey row is two packed words, so dst is indexed at 2× the row.
// Draws run through the vectorized batch kernel — one strided call per
// class — and the raw class-1 draw columns feed the kernel's
// draw-column entry directly (a Uint32 draw is the top 32 bits of its
// Uint64 output, and the truncation folds into the kernel's own lane
// split), which is the layout the AVX2 kernel walks natively.
func (s *ChaskeyScenario) SampleSlice(_ *prng.Rand, base uint64, firstRow int, dst []uint64, y []int) {
	off0 := firstRow & 1
	off1 := 1 - off0
	var rnd [2 * chaskey.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off0), 2, chaskey.SlicedLanes, 2, rnd[:])
	for l := 0; l < chaskey.SlicedLanes; l++ {
		dst[2*(off0+2*l)] = rnd[l]
		dst[2*(off0+2*l)+1] = rnd[chaskey.SlicedLanes+l]
	}
	var cols [4 * chaskey.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off1), 2, chaskey.SlicedLanes, 4, cols[:])
	var outLo, outHi [chaskey.SlicedLanes]uint64
	chaskey.PermuteDiffDrawCols64(&cols, s.Delta, s.Rounds, &outLo, &outHi)
	for l := 0; l < chaskey.SlicedLanes; l++ {
		dst[2*(off1+2*l)] = outLo[l]
		dst[2*(off1+2*l)+1] = outHi[l]
	}
	for i := range y {
		y[i] = (firstRow + i) & 1
	}
}

// Compile-time checks that the sweep scenarios stay wired to their
// bitsliced windows and related-key contracts.
var (
	_ RelatedKeyScenario = (*SimonScenario)(nil)
	_ RelatedKeyScenario = (*SimeckScenario)(nil)
	_ SliceScenario      = (*SimonScenario)(nil)
	_ SliceScenario      = (*SimeckScenario)(nil)
	_ SliceScenario      = (*ChaskeyScenario)(nil)
)
