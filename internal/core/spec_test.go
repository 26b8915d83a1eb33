package core

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/chaskey"
	"repro/internal/duplex"
	"repro/internal/gift"
	"repro/internal/prng"
	"repro/internal/simeck"
	"repro/internal/simon"
	"repro/internal/speck"
	"repro/internal/sponge"
	"repro/internal/trivium"
)

// specSample is the specification reference for every scenario type in
// the package: one cipher sample for the class, written the slow and
// obvious way through the cipher packages' public scalar API (sponge
// and duplex calls, fresh key schedules, two scalar encryptions) and
// returned as the float feature vector. SampleBatch and SampleSlice
// must produce exactly these bits and consume exactly these generator
// outputs; TestPackedMatchesLegacySample and the sweep fuzz targets
// hold them to it.
func specSample(s Scenario, r *prng.Rand, class int) []float64 {
	switch s := s.(type) {
	case *GimliHashScenario:
		msg := r.Bytes(s.MsgLen)
		h1 := sponge.RateAfterAbsorb(msg, s.Rounds)
		bits.XOR(msg, msg, s.Deltas[class])
		h2 := sponge.RateAfterAbsorb(msg, s.Rounds)
		return bits.ToFloats(nil, bits.XORBytes(h1[:], h2[:]))
	case *GimliCipherScenario:
		key := r.Bytes(duplex.KeySize)
		nonce := r.Bytes(duplex.NonceSize)
		c1 := duplex.InitRate(key, nonce, s.Rounds)
		bits.XOR(nonce, nonce, s.Deltas[class])
		c2 := duplex.InitRate(key, nonce, s.Rounds)
		return bits.ToFloats(nil, bits.XORBytes(c1[:], c2[:]))
	case *SpeckScenario:
		if class == 0 {
			return bits.ToFloats(nil, r.Bytes(4))
		}
		c := speck.New([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
		p := speck.Block{X: r.Uint16(), Y: r.Uint16()}
		d := c.EncryptRounds(p, s.Rounds).XOR(c.EncryptRounds(p.XOR(s.Delta), s.Rounds))
		return bits.ToFloats(nil, d.Bytes())
	case *SimonScenario:
		if class == 0 {
			return bits.ToFloats(nil, r.Bytes(4))
		}
		k := simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
		p := simon.Block{X: r.Uint16(), Y: r.Uint16()}
		ca, cb := simon.New(k), simon.New(k.XOR(s.KeyD))
		d := ca.EncryptRounds(p, s.Rounds).XOR(cb.EncryptRounds(p.XOR(s.Delta), s.Rounds))
		return bits.ToFloats(nil, d.Bytes())
	case *SimeckScenario:
		if class == 0 {
			return bits.ToFloats(nil, r.Bytes(4))
		}
		k := simeck.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()}
		p := simeck.Block{X: r.Uint16(), Y: r.Uint16()}
		ca, cb := simeck.New(k), simeck.New(k.XOR(s.KeyD))
		d := ca.EncryptRounds(p, s.Rounds).XOR(cb.EncryptRounds(p.XOR(s.Delta), s.Rounds))
		return bits.ToFloats(nil, d.Bytes())
	case *ChaskeyScenario:
		if class == 0 {
			return bits.ToFloats(nil, r.Bytes(chaskey.StateBytes))
		}
		v := chaskey.State{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
		d := chaskey.Permute(v, s.Rounds).XOR(chaskey.Permute(v.XOR(s.Delta), s.Rounds))
		return bits.ToFloats(nil, d.Bytes())
	case *Gift64Scenario:
		if class == 0 {
			return bits.ToFloats(nil, r.Bytes(8))
		}
		c := gift.NewCipher64([8]uint16{
			r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
			r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		})
		p := r.Uint64()
		d := c.EncryptRounds(p, s.Rounds) ^ c.EncryptRounds(p^s.Delta, s.Rounds)
		out := make([]float64, 64)
		for i := range out {
			out[i] = float64(d >> i & 1)
		}
		return out
	case *TriviumScenario:
		key := r.Bytes(trivium.KeyBytes)
		iv := r.Bytes(trivium.IVBytes)
		a, err := trivium.Prefix(key, iv, s.InitClocks, s.PrefixLen)
		if err != nil {
			panic(err)
		}
		bits.XOR(iv, iv, s.Deltas[class])
		b, err := trivium.Prefix(key, iv, s.InitClocks, s.PrefixLen)
		if err != nil {
			panic(err)
		}
		return bits.ToFloats(nil, bits.XORBytes(a, b))
	case *FuncScenario:
		p := r.Bytes(s.InLen)
		y1 := s.F(p)
		bits.XOR(p, p, s.DeltaIn[class])
		y2 := s.F(p)
		return bits.ToFloats(nil, bits.XORBytes(y1, y2))
	}
	panic(fmt.Sprintf("specSample: no reference for %T", s))
}

// crossCheckBatch asserts SampleBatch(seed, class) into a dirty buffer
// equals the packed specification sample and consumed the same
// generator state.
func crossCheckBatch(t *testing.T, s Scenario, seed uint64, class int) {
	t.Helper()
	r := prng.NewStream(seed, 0)
	want := make([]uint64, bits.PackedWords(s.FeatureLen()))
	bits.PackFloats(want, specSample(s, r, class))
	rb := prng.NewStream(seed, 0)
	got := make([]uint64, len(want))
	for i := range got {
		got[i] = ^uint64(0)
	}
	s.SampleBatch(rb, class, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s class %d seed %#x: SampleBatch word %d = %#x, spec packs to %#x",
				s.Name(), class, seed, i, got[i], want[i])
		}
	}
	if r.Uint64() != rb.Uint64() {
		t.Fatalf("%s class %d seed %#x: SampleBatch consumed different generator state than the spec", s.Name(), class, seed)
	}
}
