package core

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/duplex"
	"repro/internal/gimli"
	"repro/internal/prng"
	"repro/internal/speck"
	"repro/internal/sponge"
)

// GimliHashScenario is the Section 4 GIMLI-HASH experiment: a
// single-block message is hashed by a round-reduced sponge and the
// 128-bit difference of the first digest half is classified by which
// message difference was injected. The paper's two differences flip
// the least significant bit of byte 4 and byte 12; arbitrary difference
// sets are supported.
type GimliHashScenario struct {
	Rounds int
	MsgLen int      // single-block message length, ≤ 15 bytes
	Deltas [][]byte // t message differences, each MsgLen bytes
}

// NewGimliHashScenario returns the paper's configuration for the given
// round count: a 15-byte message with differences 0x01 at byte 4 and at
// byte 12.
func NewGimliHashScenario(rounds int) (*GimliHashScenario, error) {
	d0 := make([]byte, 15)
	d1 := make([]byte, 15)
	d0[4] = 0x01
	d1[12] = 0x01
	return CustomGimliHashScenario(rounds, 15, [][]byte{d0, d1})
}

// CustomGimliHashScenario validates and builds an arbitrary-difference
// hash scenario.
func CustomGimliHashScenario(rounds, msgLen int, deltas [][]byte) (*GimliHashScenario, error) {
	if rounds < 1 || rounds > gimli.FullRounds {
		return nil, fmt.Errorf("core: invalid round count %d", rounds)
	}
	if msgLen < 0 || msgLen >= sponge.Rate {
		return nil, fmt.Errorf("core: single-block message length must be in [0, 15], got %d", msgLen)
	}
	if len(deltas) < 2 {
		return nil, fmt.Errorf("core: need t ≥ 2 differences, got %d", len(deltas))
	}
	for i, d := range deltas {
		if len(d) != msgLen {
			return nil, fmt.Errorf("core: difference %d has %d bytes, want %d", i, len(d), msgLen)
		}
		if bits.PopCount(d) == 0 {
			return nil, fmt.Errorf("core: difference %d is zero", i)
		}
	}
	return &GimliHashScenario{Rounds: rounds, MsgLen: msgLen, Deltas: deltas}, nil
}

// Name identifies the scenario.
func (s *GimliHashScenario) Name() string {
	return fmt.Sprintf("gimli-hash-%dr-t%d", s.Rounds, len(s.Deltas))
}

// Classes returns t.
func (s *GimliHashScenario) Classes() int { return len(s.Deltas) }

// FeatureLen returns 128: the bits of the first digest half.
func (s *GimliHashScenario) FeatureLen() int { return sponge.Rate * 8 }

// packRateDiff packs the 128-bit rate difference of two permuted states
// straight from the state words: the rate serializes little-endian, and
// the packed-row layout is little-endian bit order, so rate word w of
// the XOR lands in the half-word w of dst unchanged.
func packRateDiff(a, b *gimli.State, dst []uint64) {
	dst[0] = uint64(a[0]^b[0]) | uint64(a[1]^b[1])<<32
	dst[1] = uint64(a[2]^b[2]) | uint64(a[3]^b[3])<<32
}

// SampleBatch hashes a random message pair differing by δ_class and
// writes the difference of the first digest half. Both messages fit
// one padded block, so each digest half is the rate of one permuted
// state; the pair differs only by δ_class in the message bytes.
func (s *GimliHashScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	var msg [sponge.Rate]byte
	r.Fill(msg[:s.MsgLen])
	var a gimli.State
	a.XORBytes(msg[:s.MsgLen])
	a.XORByte(s.MsgLen, 0x01)
	a.XORByte(gimli.StateBytes-1, 0x01)
	b := a
	b.XORBytes(s.Deltas[class])
	gimli.PermuteRounds(&a, s.Rounds)
	gimli.PermuteRounds(&b, s.Rounds)
	packRateDiff(&a, &b, dst)
}

// GimliCipherScenario is the Section 4 GIMLI-CIPHER experiment in the
// nonce-respecting setting: per sample, a fresh random 256-bit key and
// a random nonce pair differing by δ_class are run through the
// round-reduced initialization, and the difference of the first
// ciphertext block c0 (zero message, one empty associated-data block)
// is classified.
type GimliCipherScenario struct {
	Rounds int
	Deltas [][]byte // t nonce differences, each 16 bytes
}

// NewGimliCipherScenario returns the paper's configuration: nonce
// differences 0x01 at byte 4 and at byte 12.
func NewGimliCipherScenario(rounds int) (*GimliCipherScenario, error) {
	d0 := make([]byte, duplex.NonceSize)
	d1 := make([]byte, duplex.NonceSize)
	d0[4] = 0x01
	d1[12] = 0x01
	return CustomGimliCipherScenario(rounds, [][]byte{d0, d1})
}

// CustomGimliCipherScenario validates and builds an
// arbitrary-difference cipher scenario.
func CustomGimliCipherScenario(rounds int, deltas [][]byte) (*GimliCipherScenario, error) {
	if rounds < 1 || rounds > gimli.FullRounds {
		return nil, fmt.Errorf("core: invalid round count %d", rounds)
	}
	if len(deltas) < 2 {
		return nil, fmt.Errorf("core: need t ≥ 2 differences, got %d", len(deltas))
	}
	for i, d := range deltas {
		if len(d) != duplex.NonceSize {
			return nil, fmt.Errorf("core: nonce difference %d has %d bytes, want %d", i, len(d), duplex.NonceSize)
		}
		if bits.PopCount(d) == 0 {
			return nil, fmt.Errorf("core: difference %d is zero", i)
		}
	}
	return &GimliCipherScenario{Rounds: rounds, Deltas: deltas}, nil
}

// Name identifies the scenario.
func (s *GimliCipherScenario) Name() string {
	return fmt.Sprintf("gimli-cipher-%dr-t%d", s.Rounds, len(s.Deltas))
}

// Classes returns t.
func (s *GimliCipherScenario) Classes() int { return len(s.Deltas) }

// FeatureLen returns 128: the bits of the first ciphertext block.
func (s *GimliCipherScenario) FeatureLen() int { return duplex.Rate * 8 }

// SampleBatch writes the c0 difference for a random key and a random
// nonce pair differing by δ_class. The pre-permutation states are
// nonce ‖ key and (nonce ⊕ δ_class) ‖ key; the post-permutation AD
// padding of InitRate is a constant, so it cancels in the rate
// difference and is skipped.
func (s *GimliCipherScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	var buf [gimli.StateBytes]byte
	r.Fill(buf[duplex.NonceSize:]) // key, drawn first
	r.Fill(buf[:duplex.NonceSize]) // nonce
	var a gimli.State
	a.SetBytes(buf[:])
	b := a
	b.XORBytes(s.Deltas[class]) // 16 bytes: flips only the nonce part
	gimli.PermuteRounds(&a, s.Rounds)
	gimli.PermuteRounds(&b, s.Rounds)
	packRateDiff(&a, &b, dst)
}

// SpeckScenario is the Gohr-style baseline of Section 2.3 transplanted
// into this framework: class 1 samples are true round-reduced
// SPECK-32/64 output differences under the input difference Delta with
// a fresh random key per sample; class 0 samples are uniformly random
// 32-bit differences. (Gohr's real/random labelling is exactly the
// t = 2 special case of Algorithm 2 in which δ1 is "replace the pair
// with random data".)
type SpeckScenario struct {
	Rounds int
	Delta  speck.Block
}

// NewSpeckScenario builds the baseline for the given rounds with
// Gohr's input difference (0x0040, 0x0000).
func NewSpeckScenario(rounds int) (*SpeckScenario, error) {
	if rounds < 1 || rounds > speck.Rounds {
		return nil, fmt.Errorf("core: invalid SPECK round count %d", rounds)
	}
	return &SpeckScenario{Rounds: rounds, Delta: speck.GohrDelta}, nil
}

// Name identifies the scenario.
func (s *SpeckScenario) Name() string { return fmt.Sprintf("speck32-%dr-real-vs-random", s.Rounds) }

// Classes returns 2 (real, random).
func (s *SpeckScenario) Classes() int { return 2 }

// FeatureLen returns 32: one block difference.
func (s *SpeckScenario) FeatureLen() int { return 32 }

// SampleBatch writes a real output difference for class 1 (fresh
// random key, random plaintext P, encryptions of P and P ⊕ Delta) and a
// uniformly random 32-bit difference — the low half of one generator
// output — for class 0.
func (s *SpeckScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	if class == 0 {
		dst[0] = r.Uint64() & 0xffffffff
		return
	}
	var c speck.Cipher
	c.Expand([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
	p := speck.Block{X: r.Uint16(), Y: r.Uint16()}
	d := c.EncryptRounds(p, s.Rounds).XOR(c.EncryptRounds(p.XOR(s.Delta), s.Rounds))
	dst[0] = uint64(d.X) | uint64(d.Y)<<16
}

// SliceRows returns the bitsliced window: 128 encryption lanes, and at
// t = 2 every other row is a cheap random sample, so one window is 256
// rows.
func (s *SpeckScenario) SliceRows() int { return 2 * speck.SlicedLanes }

// SampleSlice fills one 256-row window through the ×128 bitsliced
// differential kernel. Row j draws from its positional substream
// exactly as SampleBatch would — class 0 one word, class 1 six 16-bit
// words — but each class is one vectorized prng.DrawWords64Strided
// call over the window's 128 substreams. The class-1 draw columns
// transpose per 64-lane group straight into the kernel's plane
// matrices, then all 128 encryptions run in one EncryptDiffPlanes128
// call. A SPECK row is one packed word, so dst is indexed by row.
func (s *SpeckScenario) SampleSlice(_ *prng.Rand, base uint64, firstRow int, dst []uint64, y []int) {
	off0 := firstRow & 1
	off1 := 1 - off0
	var rnd [speck.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off0), 2, speck.SlicedLanes, 1, rnd[:])
	for l := 0; l < speck.SlicedLanes; l++ {
		dst[off0+2*l] = rnd[l] & 0xffffffff
	}
	var cols [6 * speck.SlicedLanes]uint64
	prng.DrawWords64Strided(base, uint64(firstRow+off1), 2, speck.SlicedLanes, 6, cols[:])
	// Column w of lane group g (64 lanes each) lives at
	// cols[w*128+64*g : w*128+64*g+64]; draw order is k0..k3, X, Y.
	col := func(w, g int) *[64]uint64 {
		return (*[64]uint64)(cols[w*speck.SlicedLanes+64*g : w*speck.SlicedLanes+64*g+64])
	}
	var m0, m1 [64]uint64
	var mp0, mp1 [32]uint64
	bits.TransposeTop16Pair(col(0, 0), col(1, 0), (*[32]uint64)(m0[0:32]))
	bits.TransposeTop16Pair(col(2, 0), col(3, 0), (*[32]uint64)(m0[32:64]))
	bits.TransposeTop16Pair(col(0, 1), col(1, 1), (*[32]uint64)(m1[0:32]))
	bits.TransposeTop16Pair(col(2, 1), col(3, 1), (*[32]uint64)(m1[32:64]))
	bits.TransposeTop16Pair(col(4, 0), col(5, 0), &mp0)
	bits.TransposeTop16Pair(col(4, 1), col(5, 1), &mp1)
	var out [speck.SlicedLanes]uint32
	speck.EncryptDiffPlanes128(&m0, &m1, &mp0, &mp1, s.Delta, s.Rounds, &out)
	for l := 0; l < speck.SlicedLanes; l++ {
		dst[off1+2*l] = uint64(out[l])
	}
	for i := range y {
		y[i] = (firstRow + i) & 1
	}
}

// Compile-time check that the bitsliced window stays wired up.
var _ SliceScenario = (*SpeckScenario)(nil)

// FuncScenario adapts an arbitrary fixed-input-length function to a
// Scenario: differences are injected into the input of f and the
// output difference is the feature vector. It is the extension hook
// for "any symmetric key primitive" promised by the paper.
type FuncScenario struct {
	Label   string
	F       func([]byte) []byte
	InLen   int
	OutLen  int
	DeltaIn [][]byte
}

// NewFuncScenario validates and builds a custom scenario.
func NewFuncScenario(label string, f func([]byte) []byte, inLen, outLen int, deltas [][]byte) (*FuncScenario, error) {
	if f == nil {
		return nil, fmt.Errorf("core: nil function")
	}
	if inLen <= 0 || outLen <= 0 {
		return nil, fmt.Errorf("core: invalid lengths in=%d out=%d", inLen, outLen)
	}
	if len(deltas) < 2 {
		return nil, fmt.Errorf("core: need t ≥ 2 differences, got %d", len(deltas))
	}
	for i, d := range deltas {
		if len(d) != inLen {
			return nil, fmt.Errorf("core: difference %d has %d bytes, want %d", i, len(d), inLen)
		}
		if bits.PopCount(d) == 0 {
			return nil, fmt.Errorf("core: difference %d is zero", i)
		}
	}
	return &FuncScenario{Label: label, F: f, InLen: inLen, OutLen: outLen, DeltaIn: deltas}, nil
}

// Name identifies the scenario.
func (s *FuncScenario) Name() string { return s.Label }

// Classes returns t.
func (s *FuncScenario) Classes() int { return len(s.DeltaIn) }

// FeatureLen returns the output length in bits.
func (s *FuncScenario) FeatureLen() int { return s.OutLen * 8 }

// SampleBatch evaluates f on a random input pair differing by δ_class
// and packs the output difference.
func (s *FuncScenario) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	p := r.Bytes(s.InLen)
	y1 := s.F(p)
	bits.XOR(p, p, s.DeltaIn[class])
	y2 := s.F(p)
	if len(y1) != s.OutLen || len(y2) != s.OutLen {
		panic(fmt.Sprintf("core: scenario %q function returned %d/%d bytes, want %d", s.Label, len(y1), len(y2), s.OutLen))
	}
	bits.PackBytes(dst, bits.XORBytes(y1, y2))
}
