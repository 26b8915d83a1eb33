// Conformance-rejection tests for the related-key scenario contract.
// External test package: these drive testkit.CheckScenario, and testkit
// imports core.
package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/testkit"
)

// misdeclaredLayout wraps a related-key scenario and lies about its
// generator layout by one word — the exact defect CheckScenario's
// DrawWords audit exists to catch.
type misdeclaredLayout struct {
	core.RelatedKeyScenario
}

func (m misdeclaredLayout) DrawWords(class int) int {
	return m.RelatedKeyScenario.DrawWords(class) + 1
}

// negativeLayout declares an impossible negative word count.
type negativeLayout struct {
	core.RelatedKeyScenario
}

func (negativeLayout) DrawWords(int) int { return -1 }

// TestCheckScenarioRejectsWrongLayout: a related-key scenario whose
// DrawWords disagrees with what SampleBatch actually consumes must fail
// conformance, and the report must name the declared layout.
func TestCheckScenarioRejectsWrongLayout(t *testing.T) {
	s, err := core.NewScenarioByName("simon-rk", 10)
	if err != nil {
		t.Fatal(err)
	}
	rk, ok := s.(core.RelatedKeyScenario)
	if !ok {
		t.Fatalf("%s does not implement RelatedKeyScenario", s.Name())
	}

	// The unwrapped scenario passes — otherwise the rejection below
	// would prove nothing.
	clean := &testkit.Recorder{}
	if f := testkit.CheckScenario(clean, rk, testkit.Config{Count: 40}); f != nil {
		t.Fatalf("genuine scenario failed conformance: %v", clean.Failures)
	}

	rec := &testkit.Recorder{}
	if f := testkit.CheckScenario(rec, misdeclaredLayout{rk}, testkit.Config{Count: 40}); f == nil {
		t.Fatal("misdeclared DrawWords passed conformance")
	}
	if len(rec.Failures) == 0 {
		t.Fatal("misdeclared DrawWords recorded no failure report")
	}
	found := false
	for _, msg := range rec.Failures {
		if strings.Contains(msg, "declared layout") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure reports never name the declared layout: %v", rec.Failures)
	}

	neg := &testkit.Recorder{}
	if f := testkit.CheckScenario(neg, negativeLayout{rk}, testkit.Config{Count: 40}); f == nil {
		t.Fatal("negative DrawWords passed conformance")
	}
}

// orDst ORs its sample into dst instead of overwriting it.
type orDst struct{ core.Scenario }

func (o orDst) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	tmp := make([]uint64, len(dst))
	o.Scenario.SampleBatch(r, class, tmp)
	for i := range dst {
		dst[i] |= tmp[i]
	}
}

// tailBits sets a bit past FeatureLen in the last packed word.
type tailBits struct{ core.Scenario }

func (s tailBits) SampleBatch(r *prng.Rand, class int, dst []uint64) {
	s.Scenario.SampleBatch(r, class, dst)
	dst[len(dst)-1] |= 1 << 63
}

// TestCheckScenarioRejectsBadWrites: a SampleBatch that leaves stale
// dst bits behind, or sets bits past FeatureLen, must fail conformance
// even though its float expansion still looks valid.
func TestCheckScenarioRejectsBadWrites(t *testing.T) {
	s, err := core.NewScenarioByName("speck", 7) // 32 feature bits: the tail is non-empty
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]core.Scenario{"or-into-dst": orDst{s}, "tail-bits": tailBits{s}} {
		rec := &testkit.Recorder{}
		if f := testkit.CheckScenario(rec, bad, testkit.Config{Count: 20}); f == nil {
			t.Errorf("%s: passed conformance", name)
		}
	}
}
