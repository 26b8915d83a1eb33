package repro_test

// Cross-module integration tests: each one exercises a path through
// several packages that no single package's unit tests cover.

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/duplex"
	"repro/internal/gift"
	"repro/internal/gimli"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/sponge"
	"repro/internal/stats"
	"repro/internal/trails"
)

// TestTrailImpliesPerfectDistinguisher ties internal/trails to
// internal/core: the 2-round GIMLI trail is deterministic, so a
// 2-round permutation scenario built on the same input difference is
// perfectly classifiable even by the analytic bit-bias baseline.
func TestTrailImpliesPerfectDistinguisher(t *testing.T) {
	din := trails.TwoRoundTrailInput
	deltaBytes := din.Bytes()
	other := make([]byte, gimli.StateBytes)
	other[0] = 0x01 // a second, unrelated difference

	perm2 := func(p []byte) []byte {
		var s gimli.State
		s.SetBytes(p)
		gimli.PermuteRounds(&s, 2)
		return s.Bytes()
	}
	s, err := core.NewFuncScenario("gimli-perm-2r", perm2,
		gimli.StateBytes, gimli.StateBytes, [][]byte{deltaBytes, other})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewBitBiasClassifier(s.FeatureLen(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Train(s, clf, core.TrainConfig{TrainPerClass: 256, ValPerClass: 256, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy != 1 {
		t.Fatalf("deterministic trail should classify perfectly, got %v", d.Accuracy)
	}
}

// TestModelSaveLoadAcrossDistinguisher persists a trained network and
// verifies the reloaded model behaves identically in the online phase
// — the paper's ".h5 file" workflow.
func TestModelSaveLoadAcrossDistinguisher(t *testing.T) {
	s, err := core.NewGimliCipherScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewMLPClassifier(s.FeatureLen(), 2, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	clf.Epochs = 3
	d, err := core.Train(s, clf, core.TrainConfig{TrainPerClass: 2048, ValPerClass: 512, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/dist.gob"
	if err := clf.Net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	net, err := nn.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := &core.NNClassifier{Net: net}
	d2 := &core.Distinguisher{
		Scenario:   s,
		Classifier: reloaded,
		Accuracy:   d.Accuracy,
	}

	// Both distinguishers must produce identical predictions on
	// identical queries.
	r1 := prng.New(77)
	r2 := prng.New(77)
	a, err := d.Distinguish(core.CipherOracle{S: s}, 400, r1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d2.Distinguish(core.CipherOracle{S: s}, 400, r2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.Verdict != b.Verdict {
		t.Fatalf("reloaded model diverged: %+v vs %+v", a, b)
	}
	if a.Verdict != stats.VerdictCipher {
		t.Fatalf("verdict %v", a.Verdict)
	}
}

// TestHashScenarioConsistentWithSponge cross-checks the scenario's
// feature vectors against a direct sponge computation.
func TestHashScenarioConsistentWithSponge(t *testing.T) {
	s, err := core.NewGimliHashScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate Sample(class=1) with the same PRNG stream.
	r1 := prng.New(5)
	features := core.Sample(s, r1, 1)

	r2 := prng.New(5)
	msg := r2.Bytes(15)
	h1 := sponge.RateAfterAbsorb(msg, 7)
	msg[12] ^= 0x01 // class 1 difference
	h2 := sponge.RateAfterAbsorb(msg, 7)
	want := bits.ToFloats(nil, bits.XORBytes(h1[:], h2[:]))

	if len(features) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(features), len(want))
	}
	for i := range want {
		if features[i] != want[i] {
			t.Fatalf("feature %d differs", i)
		}
	}
}

// TestCipherScenarioConsistentWithDuplex does the same for the cipher
// scenario against duplex.InitRate.
func TestCipherScenarioConsistentWithDuplex(t *testing.T) {
	s, err := core.NewGimliCipherScenario(6)
	if err != nil {
		t.Fatal(err)
	}
	r1 := prng.New(6)
	features := core.Sample(s, r1, 0)

	r2 := prng.New(6)
	key := r2.Bytes(duplex.KeySize)
	nonce := r2.Bytes(duplex.NonceSize)
	c1 := duplex.InitRate(key, nonce, 6)
	nonce[4] ^= 0x01 // class 0 difference
	c2 := duplex.InitRate(key, nonce, 6)
	want := bits.ToFloats(nil, bits.XORBytes(c1[:], c2[:]))

	for i := range want {
		if features[i] != want[i] {
			t.Fatalf("feature %d differs", i)
		}
	}
}

// TestMulticlassDistinguisher runs the framework at t = 4 — the
// paper's Algorithm 2 is stated for arbitrary t, and the random
// baseline shifts to 1/4 accordingly.
func TestMulticlassDistinguisher(t *testing.T) {
	deltas := make([][]byte, 4)
	for i := range deltas {
		deltas[i] = make([]byte, 16)
		deltas[i][4*i] = 0x01
	}
	s, err := core.CustomGimliCipherScenario(5, deltas)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewMLPClassifier(s.FeatureLen(), 4, 128, 21)
	if err != nil {
		t.Fatal(err)
	}
	clf.Epochs = 4
	d, err := core.Train(s, clf, core.TrainConfig{TrainPerClass: 4096, ValPerClass: 1024, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.6 { // baseline is 0.25
		t.Fatalf("t=4 accuracy %v", d.Accuracy)
	}
	// The oracle game still works with four classes.
	games, err := d.PlayGames(10, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if games.SuccessRate() < 0.9 {
		t.Fatalf("t=4 game success %v", games.SuccessRate())
	}
}

// TestFullRoundNegativeControlHash: the full 24-round GIMLI-HASH must
// not be distinguishable (the cipher-side control lives in
// internal/core's tests).
func TestFullRoundNegativeControlHash(t *testing.T) {
	s, err := core.NewGimliHashScenario(24)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewMLPClassifier(s.FeatureLen(), 2, 32, 31)
	if err != nil {
		t.Fatal(err)
	}
	clf.Epochs = 2
	_, err = core.Train(s, clf, core.TrainConfig{TrainPerClass: 2048, ValPerClass: 2048, Seed: 31})
	if !errors.Is(err, core.ErrNoDistinguisher) {
		t.Fatalf("full-round GIMLI-HASH distinguishable? err=%v", err)
	}
}

// TestOnlineComplexityMatchesTheory: empirically measure how many
// online queries the 6-round distinguisher needs and compare with
// stats.OnlineQueriesFor.
func TestOnlineComplexityMatchesTheory(t *testing.T) {
	s, err := core.NewGimliCipherScenario(6)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewMLPClassifier(s.FeatureLen(), 2, 64, 41)
	if err != nil {
		t.Fatal(err)
	}
	clf.Epochs = 3
	d, err := core.Train(s, clf, core.TrainConfig{TrainPerClass: 4096, ValPerClass: 2048, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// Size the online phase at 5σ: the game's Decide rule spends 3σ on
	// its own significance guard, so sizing at the same level leaves
	// occasional inconclusive verdicts.
	n, err := stats.OnlineQueriesFor(d.Accuracy, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With the theoretically sufficient query count, the game should
	// be essentially always right.
	games, err := d.PlayGames(20, n, 51)
	if err != nil {
		t.Fatal(err)
	}
	if games.SuccessRate() < 0.9 {
		t.Fatalf("with %d queries success rate %v", n, games.SuccessRate())
	}
	// Sanity on magnitude: a ~0.9-accuracy distinguisher needs far
	// fewer than 2^14.3 queries.
	if float64(n) > math.Exp2(14.3) {
		t.Fatalf("needed %d queries — more than the paper's 8-round budget", n)
	}
}

// TestSeededEndToEndReproducibility: the entire pipeline (data, init,
// training, online game) is a pure function of the seeds.
func TestSeededEndToEndReproducibility(t *testing.T) {
	run := func() (float64, float64) {
		s, err := core.NewGimliHashScenario(6)
		if err != nil {
			t.Fatal(err)
		}
		clf, err := core.NewMLPClassifier(s.FeatureLen(), 2, 64, 61)
		if err != nil {
			t.Fatal(err)
		}
		clf.Epochs = 2
		d, err := core.Train(s, clf, core.TrainConfig{TrainPerClass: 1024, ValPerClass: 512, Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Distinguish(core.CipherOracle{S: s}, 300, prng.New(61))
		if err != nil {
			t.Fatal(err)
		}
		return d.Accuracy, res.Accuracy
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("end-to-end run not reproducible: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}

// TestNNApproachesOptimalOnToyCipher quantifies "the neural network
// simulates the all-in-one distribution" on the one target where the
// optimum is exactly computable: the 8-bit GIFT toy cipher. The
// trained classifier's accuracy must come within a few points of the
// likelihood-ratio optimum 1/2 + TV/2.
func TestNNApproachesOptimalOnToyCipher(t *testing.T) {
	optimal := gift.OptimalPairAccuracy(0x32, 0x01)

	toy := func(p []byte) []byte { return []byte{gift.ToyEncrypt(p[0])} }
	s, err := core.NewFuncScenario("gift-toy", toy, 1, 1, [][]byte{{0x32}, {0x01}})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewMLPClassifier(s.FeatureLen(), 2, 32, 71)
	if err != nil {
		t.Fatal(err)
	}
	clf.Epochs = 10
	d, err := core.Train(s, clf, core.TrainConfig{TrainPerClass: 8192, ValPerClass: 4096, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("toy cipher: NN %.4f vs optimal %.4f", d.Accuracy, optimal)
	if d.Accuracy > optimal+0.02 {
		t.Fatalf("NN accuracy %.4f exceeds the information-theoretic optimum %.4f", d.Accuracy, optimal)
	}
	if d.Accuracy < optimal-0.05 {
		t.Fatalf("NN accuracy %.4f far below the optimum %.4f — failed to learn the distribution", d.Accuracy, optimal)
	}
}
