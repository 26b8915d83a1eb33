package core

import (
	"bytes"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
)

// legacyDataset reconstructs a dataset row by row from the
// specification reference: row j is specSample drawn from the
// positional substream prng.NewStream(base, j).
func legacyDataset(s Scenario, perClass int, seed uint64) ([][]float64, []int) {
	t := s.Classes()
	n := perClass * t
	base := prng.New(seed).Uint64()
	x := make([][]float64, n)
	y := make([]int, n)
	for j := 0; j < n; j++ {
		c := j % t
		x[j] = specSample(s, prng.NewStream(base, uint64(j)), c)
		y[j] = c
	}
	return x, y
}

// TestPackedMatchesLegacySample: for every registered scenario family,
// the packed engine's output — expanded back to floats — is identical
// to the row-by-row specification reference at workers 1, 4 and 7.
// perClass is odd and large enough that the serial run covers a full
// slice window plus per-row remainders, while 4 and 7 workers cut
// shards too short for a window.
func TestPackedMatchesLegacySample(t *testing.T) {
	withParallelism(t, 8)
	for _, s := range RegisteredScenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			const perClass = 131
			const seed = 2020
			wantX, wantY := legacyDataset(s, perClass, seed)
			for _, workers := range []int{1, 4, 7} {
				d := GenerateDatasetParallel(s, perClass, prng.New(seed), workers)
				if d.Len() != len(wantY) || d.FeatureLen() != s.FeatureLen() {
					t.Fatalf("workers=%d: shape %d×%d, want %d×%d",
						workers, d.Len(), d.FeatureLen(), len(wantY), s.FeatureLen())
				}
				var row []float64
				for j := 0; j < d.Len(); j++ {
					if d.Y[j] != wantY[j] {
						t.Fatalf("workers=%d row %d: label %d, want %d", workers, j, d.Y[j], wantY[j])
					}
					row = d.Row(j, row)
					for k, v := range row {
						if v != wantX[j][k] {
							t.Fatalf("workers=%d row %d bit %d: packed %v, spec %v",
								workers, j, k, v, wantX[j][k])
						}
					}
				}
			}
		})
	}
}

// TestDatasetRowViews pins the view semantics: Packed aliases the
// backing store, Row reuses caller scratch, and Rows caches one
// materialization.
func TestDatasetRowViews(t *testing.T) {
	s, err := NewGimliHashScenario(6)
	if err != nil {
		t.Fatal(err)
	}
	d := GenerateDataset(s, 3, prng.New(8))
	if d.WordsPerRow() != bits.PackedWords(s.FeatureLen()) {
		t.Fatalf("WordsPerRow = %d", d.WordsPerRow())
	}

	// Row into nil scratch allocates; reusing the returned slice does not
	// re-allocate and overwrites in place.
	r0 := d.Row(0, nil)
	want1 := d.Row(1, nil)
	got1 := d.Row(1, r0)
	if &got1[0] != &r0[0] {
		t.Fatal("Row did not reuse caller scratch with sufficient capacity")
	}
	for k := range want1 {
		if got1[k] != want1[k] {
			t.Fatalf("scratch-reusing Row differs at bit %d", k)
		}
	}

	// Rows is cached and consistent with Row.
	rows := d.Rows()
	if len(rows) != d.Len() {
		t.Fatalf("Rows returned %d rows", len(rows))
	}
	if &d.Rows()[0][0] != &rows[0][0] {
		t.Fatal("Rows did not cache its materialization")
	}
	var scratch []float64
	for i := range rows {
		scratch = d.Row(i, scratch)
		for k := range scratch {
			if rows[i][k] != scratch[k] {
				t.Fatalf("Rows()[%d] differs from Row at bit %d", i, k)
			}
		}
	}

	// Packed aliases the backing store.
	if &d.Packed(0)[0] != &d.PackedBits()[0] {
		t.Fatal("Packed(0) does not alias PackedBits")
	}
}

// TestDatasetPersistRoundTrip: SaveDataset/LoadDataset round-trips the
// packed backing store bit-exactly, labels included.
func TestDatasetPersistRoundTrip(t *testing.T) {
	s, err := NewSpeckScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	d := GenerateDatasetParallel(s, 33, prng.New(99), 4)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(got, d) {
		t.Fatal("round-tripped dataset differs")
	}
	if got.FeatureLen() != d.FeatureLen() || got.WordsPerRow() != d.WordsPerRow() {
		t.Fatalf("round-tripped shape %d/%d, want %d/%d",
			got.FeatureLen(), got.WordsPerRow(), d.FeatureLen(), d.WordsPerRow())
	}
	// The reloaded dataset serves float views like the original.
	want := d.Rows()
	rows := got.Rows()
	for i := range want {
		for k := range want[i] {
			if rows[i][k] != want[i][k] {
				t.Fatalf("row %d bit %d differs after round trip", i, k)
			}
		}
	}
}

// TestLoadDatasetRejectsGarbage: corrupted headers and truncated
// payloads must error, not panic.
func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := LoadDataset(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("LoadDataset accepted garbage")
	}

	s, _ := NewSpeckScenario(3)
	d := GenerateDataset(s, 4, prng.New(1))
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	// Wrong magic.
	var badMagic bytes.Buffer
	if err := SaveDataset(&badMagic, d); err != nil {
		t.Fatal(err)
	}
	b := bytes.Replace(badMagic.Bytes(), []byte(datasetMagic), []byte("mldd-dataXXXX"), 1)
	if _, err := LoadDataset(bytes.NewReader(b)); err == nil {
		t.Fatal("LoadDataset accepted wrong magic")
	}
}

// TestFitDatasetMatchesFit: the DatasetClassifier fast path must train
// to byte-identical weights and identical predictions as the legacy
// [][]float64 path — this is what keeps the seed-2020 accuracy pins
// valid after Train switched to fitDataset/PredictDataset.
func TestFitDatasetMatchesFit(t *testing.T) {
	s, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	train := GenerateDataset(s, 101, prng.New(21))
	probe := GenerateDataset(s, 17, prng.New(22))

	mk := func() *NNClassifier {
		c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 16, 9)
		if err != nil {
			t.Fatal(err)
		}
		c.Epochs, c.Batch = 2, 32
		return c
	}
	legacy := mk()
	if err := legacy.Fit(train.Rows(), train.Y); err != nil {
		t.Fatal(err)
	}
	packed := mk()
	if err := packed.FitDataset(train); err != nil {
		t.Fatal(err)
	}
	lp, pp := legacy.Net.Params(), packed.Net.Params()
	for i := range lp {
		for j := range lp[i].W {
			if lp[i].W[j] != pp[i].W[j] {
				t.Fatalf("FitDataset weights diverge at param %d scalar %d", i, j)
			}
		}
	}
	want := legacy.PredictBatch(probe.Rows())
	got := packed.PredictDataset(probe)
	if len(got) != len(want) {
		t.Fatalf("PredictDataset returned %d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PredictDataset diverges from PredictBatch at row %d", i)
		}
	}
	if got := packed.PredictDataset(GenerateDataset(s, 0, prng.New(1))); got != nil {
		t.Fatalf("PredictDataset on empty dataset = %v, want nil", got)
	}
}
