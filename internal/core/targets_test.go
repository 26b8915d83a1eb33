package core

import (
	"testing"

	"repro/internal/prng"
)

func TestGift64ScenarioShape(t *testing.T) {
	s, err := NewGift64Scenario(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.FeatureLen() != 64 || s.Classes() != 2 {
		t.Fatalf("shape %d/%d", s.FeatureLen(), s.Classes())
	}
	r := prng.New(1)
	if len(Sample(s, r, 1)) != 64 || len(RandomSample(s, r)) != 64 {
		t.Fatal("sample lengths wrong")
	}
	if _, err := NewGift64Scenario(0); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := NewGift64Scenario(29); err == nil {
		t.Error("29 rounds accepted")
	}
}

func TestGift64DistinguisherLowRounds(t *testing.T) {
	// The conclusion's future-work target: round-reduced GIFT
	// distinguishes easily at 3 rounds.
	s, _ := NewGift64Scenario(3)
	c, _ := NewMLPClassifier(s.FeatureLen(), s.Classes(), 64, 3)
	c.Epochs = 3
	d, err := Train(s, c, TrainConfig{TrainPerClass: 4096, ValPerClass: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.9 {
		t.Fatalf("3-round GIFT-64 accuracy %v", d.Accuracy)
	}
}

func TestSalsaScenario(t *testing.T) {
	s, err := NewSalsaScenario(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.FeatureLen() != 512 || s.Classes() != 2 {
		t.Fatalf("shape %d/%d", s.FeatureLen(), s.Classes())
	}
	if _, err := NewSalsaScenario(3); err == nil {
		t.Error("odd rounds accepted")
	}
	if _, err := NewSalsaScenario(22); err == nil {
		t.Error("22 rounds accepted")
	}
}

func TestSalsaDistinguisherLowRounds(t *testing.T) {
	// §2.1's first non-Markov example: one double-round of the Salsa
	// core distinguishes easily. (Four rounds already diffuse too well
	// for this small data budget — the ARX core is fast; published
	// 4-round biases need orders of magnitude more samples.)
	s, _ := NewSalsaScenario(2)
	c, _ := NewMLPClassifier(s.FeatureLen(), s.Classes(), 64, 4)
	c.Epochs = 3
	d, err := Train(s, c, TrainConfig{TrainPerClass: 2048, ValPerClass: 1024, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.9 {
		t.Fatalf("2-round Salsa accuracy %v", d.Accuracy)
	}
}

func TestTriviumScenario(t *testing.T) {
	s, err := NewTriviumScenario(288)
	if err != nil {
		t.Fatal(err)
	}
	if s.FeatureLen() != 128 || s.Classes() != 2 {
		t.Fatalf("shape %d/%d", s.FeatureLen(), s.Classes())
	}
	if s.Name() != "trivium-288clk-t2" {
		t.Fatalf("name %q", s.Name())
	}
	if _, err := NewTriviumScenario(-1); err == nil {
		t.Error("negative clocks accepted")
	}
	if _, err := NewTriviumScenario(1153); err == nil {
		t.Error("oversized clocks accepted")
	}
}

func TestTriviumDistinguisherReducedInit(t *testing.T) {
	// §2.1's second non-Markov example: quarter-initialization Trivium
	// keystream prefixes are trivially classifiable by IV difference.
	s, _ := NewTriviumScenario(288)
	c, _ := NewMLPClassifier(s.FeatureLen(), s.Classes(), 64, 5)
	c.Epochs = 3
	d, err := Train(s, c, TrainConfig{TrainPerClass: 2048, ValPerClass: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.9 {
		t.Fatalf("reduced-init Trivium accuracy %v", d.Accuracy)
	}
}
