package core

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/chaskey"
	"repro/internal/gift"
	"repro/internal/prng"
	"repro/internal/simeck"
	"repro/internal/simon"
)

// The sweep fuzz targets drive a scenario's SampleBatch sampler and its
// bitsliced SampleSlice window from fuzzer-chosen seeds, rounds and
// differences, and require both to reproduce the specification
// reference (specSample) bit for bit — the sampler contract under
// adversarial inputs rather than the conformance suite's random draws.
// They live in package core (not testkit) because testkit imports core.

// crossCheckSlice asserts one SampleSlice window at an arbitrary (and
// arbitrarily aligned) firstRow reproduces, row for row, what the
// specification reference draws from each row's positional substream —
// the SliceScenario determinism contract under adversarial inputs.
func crossCheckSlice(t *testing.T, s SliceScenario, seed uint64, firstRow int) {
	t.Helper()
	words := bits.PackedWords(s.FeatureLen())
	w := s.SliceRows()
	dst := make([]uint64, w*words)
	y := make([]int, w)
	s.SampleSlice(prng.New(0), seed, firstRow, dst, y)
	want := make([]uint64, words)
	for i := 0; i < w; i++ {
		j := firstRow + i
		bits.PackFloats(want, specSample(s, prng.NewStream(seed, uint64(j)), j%s.Classes()))
		if y[i] != j%s.Classes() {
			t.Fatalf("%s seed %#x row %d: SampleSlice label %d, want %d", s.Name(), seed, j, y[i], j%s.Classes())
		}
		for k := 0; k < words; k++ {
			if dst[i*words+k] != want[k] {
				t.Fatalf("%s seed %#x row %d: SampleSlice word %d = %#x, spec %#x",
					s.Name(), seed, j, k, dst[i*words+k], want[k])
			}
		}
	}
}

// FuzzSimonEncrypt cross-checks the SIMON scenario's SampleBatch and
// bitsliced window (at an adversarial window start) against the spec
// over fuzzer-chosen seeds, rounds, plaintext and key differences
// (single-key and related-key), and the cipher's own round-trip for the
// same parameters.
func FuzzSimonEncrypt(f *testing.F) {
	f.Add(uint64(1), uint(8), uint16(0), uint16(0x40), uint16(0x40), uint(0))
	f.Add(uint64(2), uint(11), uint16(0x8000), uint16(0), uint16(0), uint(3))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint, dx, dy, dk uint16, firstRow uint) {
		n := int(rounds%simon.Rounds) + 1
		s, err := CustomSimonScenario(n, simon.Block{X: dx, Y: dy}, simon.Key{0, 0, 0, dk})
		if err != nil {
			return // both differences zero — rejected by construction
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		crossCheckSlice(t, s, seed, int(firstRow%4096))
		r := prng.NewStream(seed, 0)
		c := simon.New(simon.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
		p := simon.Block{X: r.Uint16(), Y: r.Uint16()}
		if got := c.DecryptRounds(c.EncryptRounds(p, n), n); got != p {
			t.Fatalf("round trip broke at %d rounds: %v != %v", n, got, p)
		}
	})
}

// FuzzSimeckEncrypt is FuzzSimonEncrypt for the SIMECK scenario.
func FuzzSimeckEncrypt(f *testing.F) {
	f.Add(uint64(1), uint(9), uint16(0), uint16(0x02), uint16(0x02), uint(0))
	f.Add(uint64(2), uint(12), uint16(0x8000), uint16(0), uint16(0), uint(3))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint, dx, dy, dk uint16, firstRow uint) {
		n := int(rounds%simeck.Rounds) + 1
		s, err := CustomSimeckScenario(n, simeck.Block{X: dx, Y: dy}, simeck.Key{0, 0, 0, dk})
		if err != nil {
			return
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		crossCheckSlice(t, s, seed, int(firstRow%4096))
		r := prng.NewStream(seed, 0)
		c := simeck.New(simeck.Key{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
		p := simeck.Block{X: r.Uint16(), Y: r.Uint16()}
		if got := c.DecryptRounds(c.EncryptRounds(p, n), n); got != p {
			t.Fatalf("round trip broke at %d rounds: %v != %v", n, got, p)
		}
	})
}

// FuzzChaskeyPermute cross-checks the Chaskey scenario's SampleBatch
// and bitsliced window against the spec over fuzzer-chosen seeds,
// rounds and state differences, and checks InvPermute inverts Permute
// for the same parameters.
func FuzzChaskeyPermute(f *testing.F) {
	f.Add(uint64(1), uint(3), uint32(0), uint32(0x80000000), uint(0))
	f.Add(uint64(2), uint(8), uint32(1), uint32(0), uint(3))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint, d0, d1 uint32, firstRow uint) {
		n := int(rounds%chaskey.LTSRounds) + 1
		s, err := CustomChaskeyScenario(n, chaskey.State{d0, d1, 0, 0})
		if err != nil {
			return // zero difference — rejected by construction
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		crossCheckSlice(t, s, seed, int(firstRow%4096))
		r := prng.NewStream(seed, 0)
		v := chaskey.State{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
		if got := chaskey.InvPermute(chaskey.Permute(v, n), n); got != v {
			t.Fatalf("InvPermute broke at %d rounds: %08x != %08x", n, got, v)
		}
	})
}

// FuzzGift64Encrypt cross-checks the GIFT-64 scenario's SampleBatch
// and bitsliced window against the spec over fuzzer-chosen seeds,
// rounds and window starts, and checks the cipher's own round-trip for
// the same parameters.
func FuzzGift64Encrypt(f *testing.F) {
	f.Add(uint64(1), uint(4), uint(0))
	f.Add(uint64(2), uint(28), uint(3))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint, firstRow uint) {
		n := int(rounds%gift.Rounds64) + 1
		s, err := NewGift64Scenario(n)
		if err != nil {
			t.Fatal(err)
		}
		crossCheckBatch(t, s, seed, 0)
		crossCheckBatch(t, s, seed, 1)
		crossCheckSlice(t, s, seed, int(firstRow%4096))
		r := prng.NewStream(seed, 0)
		var c gift.Cipher64
		c.Expand([8]uint16{
			r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
			r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		})
		p := r.Uint64()
		if got := c.DecryptRounds(c.EncryptRounds(p, n), n); got != p {
			t.Fatalf("round trip broke at %d rounds: %016x != %016x", n, got, p)
		}
	})
}
