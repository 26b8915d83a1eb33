package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/prng"
)

// withParallelism raises GOMAXPROCS for the duration of a test so that
// multi-worker paths genuinely fan out across goroutines even on
// single-CPU hosts, where GenerateDatasetParallel's worker clamp would
// otherwise collapse every worker count to the inline serial path.
func withParallelism(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// datasetsEqual reports whether two datasets are byte-identical, down
// to the packed backing store.
func datasetsEqual(a, b *Dataset) bool {
	if a.Len() != b.Len() || a.FeatureLen() != b.FeatureLen() {
		return false
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			return false
		}
	}
	ab, bb := a.PackedBits(), b.PackedBits()
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// TestGenerateDatasetParallelDeterminism is the determinism regression
// test for the sharded-PRNG scheme: for a Gimli and a Speck scenario,
// GenerateDatasetParallel at 1, 4 and 7 workers must produce (X, Y)
// identical to the serial GenerateDataset from the same seed.
func TestGenerateDatasetParallelDeterminism(t *testing.T) {
	withParallelism(t, 8)
	gimli, err := NewGimliCipherScenario(6)
	if err != nil {
		t.Fatal(err)
	}
	speck, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scenario{gimli, speck} {
		// perClass chosen so the row count is not divisible by the
		// worker counts — shard boundaries land mid-class.
		const perClass = 101
		want := GenerateDataset(s, perClass, prng.New(33))
		if want.Len() != perClass*s.Classes() {
			t.Fatalf("%s: serial dataset has %d rows, want %d", s.Name(), want.Len(), perClass*s.Classes())
		}
		for _, workers := range []int{1, 4, 7} {
			got := GenerateDatasetParallel(s, perClass, prng.New(33), workers)
			if !datasetsEqual(got, want) {
				t.Errorf("%s: %d-worker dataset differs from serial", s.Name(), workers)
			}
		}
	}
}

// batchOnly hides the wrapped scenario's slice window, forcing the
// engine down the one-row-at-a-time SampleBatch path.
type batchOnly struct{ Scenario }

// TestGenerateDatasetFastPathIdentity: the engine's bitsliced cipher
// windows must produce datasets byte-identical to the per-row
// SampleBatch path, at every worker count. perClass is ≥ 128 so the
// slice path really runs, and odd so shard boundaries cut windows into
// remainders.
func TestGenerateDatasetFastPathIdentity(t *testing.T) {
	withParallelism(t, 8)
	speck, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	simon, err := NewSimonScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	simonRK, err := NewSimonRKScenario(10)
	if err != nil {
		t.Fatal(err)
	}
	simeck, err := NewSimeckScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	simeckRK, err := NewSimeckRKScenario(12)
	if err != nil {
		t.Fatal(err)
	}
	chas, err := NewChaskeyScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	gift64, err := NewGift64Scenario(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		wide   Scenario
		narrow Scenario
	}{
		{"speck-slice-vs-batch", speck, batchOnly{speck}},
		{"simon-slice-vs-batch", simon, batchOnly{simon}},
		{"simon-rk-slice-vs-batch", simonRK, batchOnly{simonRK}},
		{"simeck-slice-vs-batch", simeck, batchOnly{simeck}},
		{"simeck-rk-slice-vs-batch", simeckRK, batchOnly{simeckRK}},
		{"chaskey-slice-vs-batch", chas, batchOnly{chas}},
		{"gift64-slice-vs-batch", gift64, batchOnly{gift64}},
	}
	const perClass = 131 // 262 rows: one full slice window plus remainder
	for _, c := range cases {
		want := GenerateDataset(c.narrow, perClass, prng.New(77))
		for _, workers := range []int{1, 4, 7} {
			got := GenerateDatasetParallel(c.wide, perClass, prng.New(77), workers)
			if !datasetsEqual(got, want) {
				t.Errorf("%s: %d-worker wide-path dataset differs from narrow path", c.name, workers)
			}
		}
	}
}

// TestGenerateDatasetConsumesOneDraw pins the generator contract:
// dataset generation consumes exactly one output from the caller's
// stream, so train/validation splits stay reproducible no matter how
// many samples each draws.
func TestGenerateDatasetConsumesOneDraw(t *testing.T) {
	s, err := NewSpeckScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	r1 := prng.New(5)
	GenerateDataset(s, 17, r1)
	r2 := prng.New(5)
	_ = r2.Uint64()
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("GenerateDataset consumed more than one draw from the caller's generator")
	}
}

func TestGenerateDatasetInterleavesClasses(t *testing.T) {
	s, err := NewSpeckScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	d := GenerateDatasetParallel(s, 5, prng.New(1), 3)
	for j, c := range d.Y {
		if c != j%s.Classes() {
			t.Fatalf("row %d has class %d, want interleaved %d", j, c, j%s.Classes())
		}
	}
}

// badOracle answers like the cipher, but after a few good answers it
// sets a bit past FeatureLen, exercising the batched validation path.
type badOracle struct {
	CipherOracle
	good int // number of valid answers before misbehaving
	n    int
}

func (o *badOracle) QueryBits(r *prng.Rand, class int, dst []uint64) {
	o.CipherOracle.QueryBits(r, class, dst)
	if o.n++; o.n > o.good {
		dst[len(dst)-1] |= 1 << 40
	}
}

// TestDistinguishRejectsMisbehavingOracle checks that the batched
// online phase still errors cleanly (no panic, no silent scoring) when
// the oracle sets a bit past FeatureLen in the middle of a batch.
func TestDistinguishRejectsMisbehavingOracle(t *testing.T) {
	s, err := NewSpeckScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewBitBiasClassifier(s.FeatureLen(), s.Classes())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Train(s, c, TrainConfig{TrainPerClass: 256, ValPerClass: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Distinguish(&badOracle{CipherOracle: CipherOracle{S: s}, good: 10}, 64, prng.New(4))
	if err == nil {
		t.Fatal("Distinguish accepted an answer with bit 40 set for a 32-feature scenario")
	}
	if !strings.Contains(err.Error(), "features") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestPredictBatchMatchesPredict checks batch/serial agreement for
// every classifier family the repository ships.
func TestPredictBatchMatchesPredict(t *testing.T) {
	s, err := NewSpeckScenario(4)
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(6)
	train := GenerateDataset(s, 128, r)
	probe := GenerateDataset(s, 32, r)

	mlp, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	mlp.Epochs = 1
	bb, err := NewBitBiasClassifier(s.FeatureLen(), s.Classes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Classifier{mlp, bb} {
		if err := c.Fit(train.Rows(), train.Y); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		batch := c.PredictBatch(probe.Rows())
		if len(batch) != probe.Len() {
			t.Fatalf("%s: batch returned %d predictions for %d samples", c.Name(), len(batch), probe.Len())
		}
		for i, x := range probe.Rows() {
			if one := c.Predict(x); one != batch[i] {
				t.Fatalf("%s: sample %d: Predict=%d PredictBatch=%d", c.Name(), i, one, batch[i])
			}
		}
	}
	if got := mlp.PredictBatch(nil); got != nil {
		t.Fatalf("PredictBatch(nil) = %v, want nil", got)
	}
}

// TestFitParallelDeterminism is the training-engine counterpart of
// TestGenerateDatasetParallelDeterminism: for a Gimli and a Speck
// scenario, an NNClassifier trained at 1, 4 and 7 workers must end with
// byte-identical network weights and identical accuracies.
func TestFitParallelDeterminism(t *testing.T) {
	gimli, err := NewGimliCipherScenario(6)
	if err != nil {
		t.Fatal(err)
	}
	speck, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scenario{gimli, speck} {
		// perClass chosen so batches of 32 leave a partial trailing
		// batch and shard boundaries land mid-batch.
		train := GenerateDataset(s, 101, prng.New(21))
		val := GenerateDataset(s, 37, prng.New(22))

		type result struct {
			bits     []uint64
			valPreds []int
		}
		run := func(workers int) result {
			c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 16, 9)
			if err != nil {
				t.Fatal(err)
			}
			c.Epochs, c.Batch, c.Workers = 2, 32, workers
			if err := c.Fit(train.Rows(), train.Y); err != nil {
				t.Fatal(err)
			}
			var bits []uint64
			for _, p := range c.Net.Params() {
				for _, w := range p.W {
					bits = append(bits, math.Float64bits(w))
				}
			}
			return result{bits: bits, valPreds: c.PredictBatch(val.Rows())}
		}

		want := run(1)
		for _, workers := range []int{4, 7} {
			got := run(workers)
			for i := range want.bits {
				if got.bits[i] != want.bits[i] {
					t.Fatalf("%s: %d-worker training diverged from serial at scalar %d", s.Name(), workers, i)
				}
			}
			for i := range want.valPreds {
				if got.valPreds[i] != want.valPreds[i] {
					t.Fatalf("%s: %d-worker predictions diverged at row %d", s.Name(), workers, i)
				}
			}
		}
	}
}

// TestNNClassifierPredictBatchChunking: chunked scratch-reusing
// prediction must agree with per-sample Predict, including when the
// classifier outlives a Net swap.
func TestNNClassifierPredictBatchChunking(t *testing.T) {
	s, err := NewSpeckScenario(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Epochs = 1
	r := prng.New(11)
	train := GenerateDataset(s, 64, r)
	if err := c.Fit(train.Rows(), train.Y); err != nil {
		t.Fatal(err)
	}
	probe := GenerateDataset(s, 40, r)
	batch := c.PredictBatch(probe.Rows())
	for i, x := range probe.Rows() {
		if got := c.Predict(x); got != batch[i] {
			t.Fatalf("batch/serial disagree at row %d: %d vs %d", i, batch[i], got)
		}
	}
	// Repeated calls reuse the cached scratch and stay consistent.
	again := c.PredictBatch(probe.Rows())
	for i := range batch {
		if again[i] != batch[i] {
			t.Fatalf("repeated PredictBatch changed row %d", i)
		}
	}
	// Swapping the network must invalidate the cached Predictor.
	c2, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Fit(train.Rows(), train.Y); err != nil {
		t.Fatal(err)
	}
	c.Net = c2.Net
	swapped := c.PredictBatch(probe.Rows())
	for i, x := range probe.Rows() {
		if got := c2.Net.PredictOne(x); got != swapped[i] {
			t.Fatalf("after Net swap, row %d predicted %d, want %d", i, swapped[i], got)
		}
	}
}
