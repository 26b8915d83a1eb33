package core

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/svm"
)

// specDistinguish is the online phase in its float formulation, kept as
// the specification Distinguish is held to: one {0,1} float answer per
// query from Oracle.Query, scored through Classifier.PredictBatch in
// chunks of distinguishBatch.
func specDistinguish(d *Distinguisher, o Oracle, queries int, r *prng.Rand) (OnlineResult, error) {
	t := d.Scenario.Classes()
	xs := make([][]float64, 0, min(queries, distinguishBatch))
	hits := 0
	for done := 0; done < queries; done += len(xs) {
		xs = xs[:0]
		for k := 0; k < min(queries-done, distinguishBatch); k++ {
			xs = append(xs, o.Query(r, (done+k)%t))
		}
		for k, p := range d.Classifier.PredictBatch(xs) {
			if p == (done+k)%t {
				hits++
			}
		}
	}
	aPrime := float64(hits) / float64(queries)
	v, err := stats.Decide(d.Accuracy, t, aPrime, queries, 3)
	if err != nil {
		return OnlineResult{}, err
	}
	return OnlineResult{Queries: queries, Accuracy: aPrime, Verdict: v}, nil
}

// specPlayGames is PlayGames over specDistinguish.
func specPlayGames(d *Distinguisher, n, queries int, seed uint64) (GameResult, error) {
	r := prng.New(seed ^ 0x9e3779b97f4a7c15)
	var res GameResult
	for i := 0; i < n; i++ {
		secretCipher := r.Intn(2) == 1
		var o Oracle = RandomOracle{S: d.Scenario}
		if secretCipher {
			o = CipherOracle{S: d.Scenario}
		}
		out, err := specDistinguish(d, o, queries, r)
		if err != nil {
			return res, err
		}
		res.Games++
		switch {
		case out.Verdict == stats.VerdictInconclusive:
			res.Inconclusive++
		case (out.Verdict == stats.VerdictCipher) == secretCipher:
			res.Correct++
		}
	}
	return res, nil
}

// TestDistinguishMatchesFloatSpec: the packed online phase (QueryBits
// into a reused Dataset chunk, scored by predictDatasetInto) returns exactly
// the float specification's result and leaves the generator in the same
// state, for the neural, bit-bias and SVM classifiers, both oracles,
// query counts below, at and across the chunk size, and feature widths
// that fill their words (128) and that do not (32).
func TestDistinguishMatchesFloatSpec(t *testing.T) {
	scenarios := []func() (Scenario, error){
		func() (Scenario, error) { return NewSpeckScenario(3) },
		func() (Scenario, error) { return NewGimliCipherScenario(4) },
	}
	for _, newScenario := range scenarios {
		s, err := newScenario()
		if err != nil {
			t.Fatal(err)
		}
		feat, classes := s.FeatureLen(), s.Classes()
		train := GenerateDataset(s, 256, prng.New(3))
		mlp, err := NewMLPClassifier(feat, classes, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		mlp.Epochs = 1
		bb, err := NewBitBiasClassifier(feat, classes)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := svm.NewLinearSVM(feat, classes, 0, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []Classifier{mlp, bb, sv} {
			if err := fitDataset(c, train); err != nil {
				t.Fatal(err)
			}
			d := &Distinguisher{Scenario: s, Classifier: c, Accuracy: 0.75}
			for _, o := range []Oracle{CipherOracle{S: s}, RandomOracle{S: s}} {
				for _, q := range []int{1, 7, distinguishBatch, distinguishBatch + 1, 20171} {
					r1, r2 := prng.New(uint64(q)), prng.New(uint64(q))
					got, err := d.Distinguish(o, q, r1)
					if err != nil {
						t.Fatal(err)
					}
					want, err := specDistinguish(d, o, q, r2)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s %s %T q=%d: Distinguish %+v, float spec %+v", s.Name(), c.Name(), o, q, got, want)
					}
					if r1.Uint64() != r2.Uint64() {
						t.Fatalf("%s %s %T q=%d: generator state differs from the float spec", s.Name(), c.Name(), o, q)
					}
				}
			}
			got, err := d.PlayGames(4, distinguishBatch+1, 17)
			if err != nil {
				t.Fatal(err)
			}
			want, err := specPlayGames(d, 4, distinguishBatch+1, 17)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %s: PlayGames %+v, float spec %+v", s.Name(), c.Name(), got, want)
			}
		}
	}
}

// TestRandomOracleQueryBitsDraws: RandomOracle.QueryBits draws one
// generator output per packed word and clears the bits past FeatureLen,
// and RandomSample, its float view, returns those bits and leaves the
// generator in the same state.
func TestRandomOracleQueryBitsDraws(t *testing.T) {
	for _, target := range []string{"speck", "gift64", "gimli-cipher", "salsa"} {
		s, err := NewScenarioByName(target, 4)
		if err != nil {
			t.Fatal(err)
		}
		n := s.FeatureLen()
		for seed := uint64(1); seed <= 3; seed++ {
			spec := prng.New(seed)
			want := make([]uint64, bits.PackedWords(n))
			for i := range want {
				want[i] = spec.Uint64()
			}
			if n%64 != 0 {
				want[len(want)-1] &= 1<<uint(n%64) - 1
			}
			r1, r2 := prng.New(seed), prng.New(seed)
			got := make([]uint64, len(want))
			for i := range got {
				got[i] = ^uint64(0) // every word must be overwritten
			}
			RandomOracle{S: s}.QueryBits(r1, 1, got)
			floats := RandomSample(s, r2)
			packed := make([]uint64, len(want))
			bits.PackFloats(packed, floats)
			for i := range want {
				if got[i] != want[i] || packed[i] != want[i] {
					t.Fatalf("%s seed %d word %d: QueryBits %#x, RandomSample %#x, want %#x", target, seed, i, got[i], packed[i], want[i])
				}
			}
			if len(floats) != n {
				t.Fatalf("%s: RandomSample returned %d features, want %d", target, len(floats), n)
			}
			next := spec.Uint64()
			if r1.Uint64() != next || r2.Uint64() != next {
				t.Fatalf("%s seed %d: QueryBits or RandomSample consumed a different number of draws", target, seed)
			}
		}
	}
}
