package testkit

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/prng"
)

// ScenarioDraw is one sampled evaluation of a core.Scenario: which
// class to sample and the PRNG seed the sample is drawn under.
type ScenarioDraw struct {
	Class int
	Seed  uint64
}

// ScenarioDraws generates draws covering every class of s. Shrinking
// lowers the class index and zeroes seed bits, so a contract violation
// reports the smallest class and seed that trigger it.
func ScenarioDraws(s core.Scenario) Gen[ScenarioDraw] {
	return Gen[ScenarioDraw]{
		Name: fmt.Sprintf("draw(%s)", s.Name()),
		Generate: func(r *prng.Rand) ScenarioDraw {
			return ScenarioDraw{Class: r.Intn(s.Classes()), Seed: r.Uint64()}
		},
		Shrink: func(v ScenarioDraw) []ScenarioDraw {
			var out []ScenarioDraw
			if v.Class > 0 {
				out = append(out, ScenarioDraw{Class: v.Class - 1, Seed: v.Seed})
			}
			for _, s := range shrinkUint64(v.Seed) {
				out = append(out, ScenarioDraw{Class: v.Class, Seed: s})
			}
			return out
		},
		Format: func(v ScenarioDraw) string {
			return fmt.Sprintf("class=%d seed=%#x", v.Class, v.Seed)
		},
	}
}

// CheckScenario verifies the core.Scenario contract for s under the
// property runner. Every draw is taken from prng.NewStream(draw.Seed, 0)
// so failures replay from the printed counterexample.
//
// SampleBatch is called twice from identical generators, once into a
// zeroed and once into an all-ones dst: the two outputs must agree (dst
// is fully overwritten and SampleBatch is a deterministic function of
// its generator), the bits past FeatureLen in the last word must be
// zero, and both calls must consume the same generator state. The float
// views core.Sample and core.RandomSample derive from SampleBatch and
// the generator alone, so they need no check of their own.
//
// Whether the sampled bits are the right ones is not a property this
// check can see; the package tests of internal/core compare every
// scenario's sampler against a specification reference built from the
// cipher packages' scalar API.
//
// When s also implements core.RelatedKeyScenario, its declared
// generator layout is audited on every draw: SampleBatch must consume
// exactly DrawWords(class) 64-bit outputs, so a related-key path that
// draws its key or plaintext words differently from its specification
// fails conformance.
func CheckScenario(t T, s core.Scenario, cfg Config) *Failure[ScenarioDraw] {
	t.Helper()
	rk, _ := s.(core.RelatedKeyScenario)
	n := s.FeatureLen()
	clean := make([]uint64, bits.PackedWords(n))
	dirty := make([]uint64, len(clean))
	prop := func(d ScenarioDraw) error {
		r := prng.NewStream(d.Seed, 0)
		rb := prng.NewStream(d.Seed, 0)
		for i := range clean {
			clean[i], dirty[i] = 0, ^uint64(0)
		}
		s.SampleBatch(r, d.Class, clean)
		s.SampleBatch(rb, d.Class, dirty)
		for i := range clean {
			if clean[i] != dirty[i] {
				return fmt.Errorf("SampleBatch word %d is %#x into a zeroed dst but %#x into an all-ones dst", i, clean[i], dirty[i])
			}
		}
		if tail := n % 64; tail != 0 && clean[len(clean)-1]>>uint(tail) != 0 {
			return fmt.Errorf("SampleBatch set bits past FeatureLen %d: last word %#x", n, clean[len(clean)-1])
		}
		probe := r.Uint64()
		if probe != rb.Uint64() {
			return fmt.Errorf("SampleBatch consumed different generator state on identical generators")
		}
		if rk != nil {
			declared := rk.DrawWords(d.Class)
			if declared < 0 {
				return fmt.Errorf("DrawWords(%d) is negative (%d)", d.Class, declared)
			}
			rc := prng.NewStream(d.Seed, 0)
			for i := 0; i < declared; i++ {
				rc.Uint64()
			}
			if rc.Uint64() != probe {
				return fmt.Errorf("SampleBatch consumed a different number of generator words than the declared layout DrawWords(%d) = %d", d.Class, declared)
			}
		}
		return nil
	}
	return CheckConfig(t, fmt.Sprintf("scenario-contract/%s", s.Name()), ScenarioDraws(s), prop, cfg)
}
