package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/svm"
)

// quickTrain trains a small MLP distinguisher for tests: 4-round
// GIMLI-CIPHER separates almost perfectly with little data.
func quickTrain(t *testing.T, rounds int) *Distinguisher {
	t.Helper()
	s, err := NewGimliCipherScenario(rounds)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Epochs = 3
	d, err := Train(s, c, TrainConfig{TrainPerClass: 2048, ValPerClass: 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrainLowRoundsHighAccuracy(t *testing.T) {
	d := quickTrain(t, 4)
	if d.Accuracy < 0.9 {
		t.Fatalf("4-round validation accuracy %v < 0.9", d.Accuracy)
	}
	if d.TrainSamples != 4096 || d.ValSamples != 2048 {
		t.Fatalf("sample accounting wrong: %d/%d", d.TrainSamples, d.ValSamples)
	}
}

func TestTrainAbortsOnFullRounds(t *testing.T) {
	// The negative control demanded by Algorithm 2: full 24-round
	// GIMLI must NOT be distinguishable — Train returns
	// ErrNoDistinguisher ("abort").
	s, _ := NewGimliCipherScenario(24)
	c, _ := NewMLPClassifier(s.FeatureLen(), 2, 32, 2)
	c.Epochs = 2
	_, err := Train(s, c, TrainConfig{TrainPerClass: 1024, ValPerClass: 1024, Seed: 3})
	if !errors.Is(err, ErrNoDistinguisher) {
		t.Fatalf("full-round GIMLI trained a distinguisher?! err=%v", err)
	}
}

func TestDistinguishCipherVsRandom(t *testing.T) {
	d := quickTrain(t, 4)
	r := prng.New(11)
	res, err := d.Distinguish(CipherOracle{S: d.Scenario}, 600, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != stats.VerdictCipher {
		t.Fatalf("cipher oracle verdict = %v (a'=%v)", res.Verdict, res.Accuracy)
	}
	res, err = d.Distinguish(RandomOracle{S: d.Scenario}, 600, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != stats.VerdictRandom {
		t.Fatalf("random oracle verdict = %v (a'=%v)", res.Verdict, res.Accuracy)
	}
}

func TestDistinguishDefaultQueryCount(t *testing.T) {
	d := quickTrain(t, 4)
	r := prng.New(12)
	res, err := d.Distinguish(CipherOracle{S: d.Scenario}, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries <= 0 {
		t.Fatal("auto query count not positive")
	}
	if res.Verdict != stats.VerdictCipher {
		t.Fatalf("auto-sized game failed: %+v", res)
	}
}

// TestDistinguishDefaultQueryCountOverflow: an offline accuracy within
// 1e-9 of 1/t (LoadDistinguisher accepts any accuracy in [0, 1]) makes
// the auto-sized query count overflow an int. Distinguish must return
// OnlineQueriesFor's error instead of sizing its buffer from the
// overflowed count and panicking.
func TestDistinguishDefaultQueryCountOverflow(t *testing.T) {
	s, err := NewSpeckScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewBitBiasClassifier(s.FeatureLen(), s.Classes())
	if err != nil {
		t.Fatal(err)
	}
	d := &Distinguisher{Scenario: s, Classifier: c, Accuracy: 0.5 + 1e-9}
	_, err = d.Distinguish(CipherOracle{S: s}, 0, prng.New(1))
	_, want := stats.OnlineQueriesFor(d.Accuracy, s.Classes(), 4)
	if want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Distinguish error %v, want OnlineQueriesFor's error %v", err, want)
	}
	if _, err := d.Complexity(); err == nil {
		t.Fatal("Complexity accepted an overflowing query count")
	}
}

func TestPlayGames(t *testing.T) {
	d := quickTrain(t, 4)
	res, err := d.PlayGames(30, 400, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Games != 30 {
		t.Fatalf("played %d games", res.Games)
	}
	if res.SuccessRate() < 0.95 {
		t.Fatalf("game success rate %v (inconclusive %d)", res.SuccessRate(), res.Inconclusive)
	}
}

func TestComplexityReport(t *testing.T) {
	d := quickTrain(t, 4)
	c, err := d.Complexity()
	if err != nil {
		t.Fatal(err)
	}
	if c.OfflineLog2 < 11 || c.OfflineLog2 > 13 {
		t.Fatalf("offline log2 = %v for 4096 samples", c.OfflineLog2)
	}
	if c.OnlineLog2 <= 0 {
		t.Fatalf("online log2 = %v", c.OnlineLog2)
	}
	// A strong distinguisher needs far fewer online queries than the
	// paper's weak 8-round one (2^14.3).
	if c.OnlineLog2 > 14.3 {
		t.Fatalf("online complexity %v worse than the paper's 8-round number", c.OnlineLog2)
	}
}

func TestSVMClassifierDistinguishes(t *testing.T) {
	// The conclusion's claim: an SVM can replace the neural network.
	s, _ := NewGimliCipherScenario(5)
	c, err := svm.NewLinearSVM(s.FeatureLen(), s.Classes(), 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Train(s, c, TrainConfig{TrainPerClass: 4096, ValPerClass: 1024, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.7 {
		t.Fatalf("SVM accuracy %v", d.Accuracy)
	}
}

func TestLogisticClassifierDistinguishes(t *testing.T) {
	s, _ := NewGimliCipherScenario(5)
	c, err := svm.NewLogistic(s.FeatureLen(), s.Classes(), 0, 3, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Train(s, c, TrainConfig{TrainPerClass: 4096, ValPerClass: 1024, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.7 {
		t.Fatalf("logistic accuracy %v", d.Accuracy)
	}
}

func TestBitBiasClassifierDistinguishes(t *testing.T) {
	s, _ := NewGimliCipherScenario(5)
	c, err := NewBitBiasClassifier(s.FeatureLen(), s.Classes())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Train(s, c, TrainConfig{TrainPerClass: 4096, ValPerClass: 1024, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.8 {
		t.Fatalf("bit-bias accuracy %v", d.Accuracy)
	}
}

func TestBitBiasValidation(t *testing.T) {
	if _, err := NewBitBiasClassifier(0, 2); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := NewBitBiasClassifier(8, 1); err == nil {
		t.Error("1 class accepted")
	}
	b, _ := NewBitBiasClassifier(4, 2)
	if err := b.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := b.Fit([][]float64{{1, 0}}, []int{0}); err == nil {
		t.Error("wrong dim accepted")
	}
	if err := b.Fit([][]float64{{1, 0, 1, 0}}, []int{5}); err == nil {
		t.Error("bad label accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("untrained predict did not panic")
			}
		}()
		b.Predict([]float64{1, 0, 1, 0})
	}()
}

func TestSpeckGohrBaseline(t *testing.T) {
	// 5-round SPECK real-vs-random should be easily distinguishable,
	// echoing Gohr's result at small scale.
	s, _ := NewSpeckScenario(5)
	c, _ := NewMLPClassifier(s.FeatureLen(), 2, 64, 11)
	d, err := Train(s, c, TrainConfig{TrainPerClass: 4096, ValPerClass: 1024, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy < 0.7 {
		t.Fatalf("5-round SPECK accuracy %v", d.Accuracy)
	}
}

func TestTrainDeterministic(t *testing.T) {
	run := func() float64 {
		s, _ := NewGimliCipherScenario(5)
		c, _ := NewMLPClassifier(s.FeatureLen(), 2, 32, 21)
		c.Epochs = 2
		d, err := Train(s, c, TrainConfig{TrainPerClass: 1024, ValPerClass: 512, Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		return d.Accuracy
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

func TestGenerateDatasetBalance(t *testing.T) {
	s, _ := NewGimliCipherScenario(6)
	d := GenerateDataset(s, 10, prng.New(1))
	if d.Len() != 20 {
		t.Fatalf("dataset size %d", d.Len())
	}
	c0 := 0
	for _, y := range d.Y {
		if y == 0 {
			c0++
		}
	}
	if c0 != 10 {
		t.Fatalf("class balance %d/20", c0)
	}
}

// TestDistinguishRejectsBadOracle: on a 32-feature scenario, whose
// packed answer leaves 32 bits of its word free, an oracle that sets
// one of them is refused with an error, not scored or a panic.
func TestDistinguishRejectsBadOracle(t *testing.T) {
	s, err := NewSpeckScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := &Distinguisher{Scenario: s, Classifier: c, Accuracy: 0.9}
	bad := oracleFunc(func(r *prng.Rand, class int, dst []uint64) {
		s.SampleBatch(r, class, dst)
		dst[0] |= 1 << 63
	})
	_, err = d.Distinguish(bad, 10, prng.New(1))
	if err == nil {
		t.Fatal("answer with bits past FeatureLen accepted")
	}
	if !strings.Contains(err.Error(), "features") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// oracleFunc is an Oracle answering through a packed-answer function.
type oracleFunc func(r *prng.Rand, class int, dst []uint64)

func (f oracleFunc) QueryBits(r *prng.Rand, class int, dst []uint64) { f(r, class, dst) }

func (f oracleFunc) Query(r *prng.Rand, class int) []float64 {
	panic("core: Distinguish must read answers through QueryBits")
}

func TestNNClassifierTable3Wrapper(t *testing.T) {
	c, err := NewTable3Classifier("mlp2", 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Net.ParamCount() != 150658 {
		t.Fatalf("mlp2 params %d", c.Net.ParamCount())
	}
	if _, err := NewTable3Classifier("bogus", 128, 1); err == nil {
		t.Fatal("bogus arch accepted")
	}
}

func TestOnEpochCallbackPlumbing(t *testing.T) {
	s, _ := NewGimliCipherScenario(4)
	c, _ := NewMLPClassifier(s.FeatureLen(), 2, 16, 31)
	c.Epochs = 2
	calls := 0
	c.OnEpoch = func(e int, l, a float64) { calls++ }
	if _, err := Train(s, c, TrainConfig{TrainPerClass: 256, ValPerClass: 256, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("OnEpoch called %d times", calls)
	}
}
