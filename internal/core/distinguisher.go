package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/stats"
)

// ErrNoDistinguisher is returned by Train when the classifier fails to
// beat the 1/t baseline — the "Abort" branch of Algorithm 2.
var ErrNoDistinguisher = errors.New("core: training accuracy did not exceed 1/t; no distinguisher found")

// TrainConfig controls the offline phase.
type TrainConfig struct {
	// TrainPerClass is the number of training samples per class. The
	// paper's headline experiment uses 2^17.6 total ≈ 99000 per class
	// at t = 2; the package default (8192) trains the 6–7 round
	// distinguishers in seconds.
	TrainPerClass int
	// ValPerClass is the number of fresh validation samples per class
	// used to measure the accuracy a of Algorithm 2 (default 2048).
	ValPerClass int
	// Seed drives all data generation.
	Seed uint64
	// MinAdvantage is how far above 1/t the validation accuracy must be
	// (in binomial sigmas of the validation set) before the
	// distinguisher is accepted. Default 3.
	MinAdvantage float64
}

func (c *TrainConfig) setDefaults() {
	if c.TrainPerClass <= 0 {
		c.TrainPerClass = 8192
	}
	if c.ValPerClass <= 0 {
		c.ValPerClass = 2048
	}
	if c.MinAdvantage <= 0 {
		c.MinAdvantage = 3
	}
}

// Distinguisher is a trained instance of Algorithm 2, ready for the
// online phase.
type Distinguisher struct {
	Scenario   Scenario
	Classifier Classifier
	// Accuracy is the validation accuracy a of the offline phase.
	Accuracy float64
	// TrainAccuracy is the accuracy on the training data itself (the
	// quantity the paper reports; it can exceed Accuracy if the model
	// memorizes).
	TrainAccuracy float64
	// TrainSamples and ValSamples record the offline data complexity.
	TrainSamples, ValSamples int
}

// Train runs the offline phase of Algorithm 2: generate labelled
// output differences, fit the classifier, and verify a > 1/t on fresh
// validation data. It returns ErrNoDistinguisher (wrapped) if the
// advantage is not significant.
func Train(s Scenario, c Classifier, cfg TrainConfig) (*Distinguisher, error) {
	cfg.setDefaults()
	if s.Classes() < 2 {
		return nil, fmt.Errorf("core: scenario %q has %d classes, need ≥ 2", s.Name(), s.Classes())
	}
	r := prng.New(cfg.Seed)
	trainSet := GenerateDatasetParallel(s, cfg.TrainPerClass, r, 0)
	if err := fitDataset(c, trainSet); err != nil {
		return nil, fmt.Errorf("core: fitting %s on %s: %w", c.Name(), s.Name(), err)
	}

	trainAcc := evalAccuracy(c, trainSet)
	valSet := GenerateDatasetParallel(s, cfg.ValPerClass, r, 0)
	valAcc := evalAccuracy(c, valSet)

	d := &Distinguisher{
		Scenario:      s,
		Classifier:    c,
		Accuracy:      valAcc,
		TrainAccuracy: trainAcc,
		TrainSamples:  trainSet.Len(),
		ValSamples:    valSet.Len(),
	}
	base := 1 / float64(s.Classes())
	z := stats.ZScore(valAcc, base, valSet.Len())
	if z < cfg.MinAdvantage {
		return d, fmt.Errorf("%w (scenario %s, classifier %s: accuracy %.4f vs 1/t %.4f, z=%.2f)",
			ErrNoDistinguisher, s.Name(), c.Name(), valAcc, base, z)
	}
	return d, nil
}

// fitDataset feeds the training set to the classifier, going straight
// from the packed backing store when the classifier understands it
// (DatasetClassifier) and materializing the float view otherwise.
func fitDataset(c Classifier, d *Dataset) error {
	if dc, ok := c.(DatasetClassifier); ok {
		return dc.FitDataset(d)
	}
	return c.Fit(d.Rows(), d.Y)
}

// evalAccuracy scores the classifier on a labelled set.
func evalAccuracy(c Classifier, d *Dataset) float64 {
	return stats.Accuracy(predictDatasetInto(c, nil, d), d.Y)
}

// predictDatasetInto classifies every row of d: straight from the
// packed backing store into dst, grown only when its capacity is short,
// when the classifier understands it (DatasetClassifier; NNClassifier
// hands the rows to its cached Predictor, which reuses its block
// scratch across calls), through the float view into a new slice
// otherwise.
func predictDatasetInto(c Classifier, dst []int, d *Dataset) []int {
	if dc, ok := c.(DatasetClassifier); ok {
		return dc.predictDatasetInto(dst, d)
	}
	return c.PredictBatch(d.Rows())
}

// OnlineResult is the outcome of one online phase (Algorithm 2,
// testing).
type OnlineResult struct {
	Queries  int     // class-prediction queries made
	Accuracy float64 // a′
	Verdict  stats.Verdict
}

// distinguishBatch caps how many oracle answers are buffered before
// they are scored, bounding memory while keeping batches large enough
// to amortize the classifier's per-call overhead.
const distinguishBatch = 4096

// Distinguish runs the online phase against an oracle: make queries
// cycling through the classes, score the classifier's predictions, and
// decide CIPHER vs RANDOM. queries is the total number of predictions
// (the paper's online data complexity; 0 selects the number suggested
// by the offline accuracy at 4σ).
//
// Queries are drawn from the oracle in order (so the generator stream
// is consumed exactly as in the per-query formulation), packed by
// Oracle.QueryBits straight into one reused Dataset chunk of up to 4096
// rows, and each chunk is scored as evalAccuracy scores a dataset: the
// neural classifiers predict from the packed rows (a few batched
// forward passes instead of thousands of 1-row ones) into one
// prediction buffer for the whole call, the others from the chunk's
// float view. No query allocates, and the result is that of Query plus
// PredictBatch on the float answers.
func (d *Distinguisher) Distinguish(o Oracle, queries int, r *prng.Rand) (OnlineResult, error) {
	t := d.Scenario.Classes()
	if queries <= 0 {
		n, err := stats.OnlineQueriesFor(d.Accuracy, t, 4)
		if err != nil {
			return OnlineResult{}, err
		}
		queries = n
	}
	feat := d.Scenario.FeatureLen()
	chunk := newDataset(min(queries, distinguishBatch), feat)
	var preds []int
	hits := 0
	for done := 0; done < queries; done += chunk.Len() {
		chunk.resize(min(queries-done, distinguishBatch))
		for k := range chunk.Y {
			c := (done + k) % t
			row := chunk.Packed(k)
			o.QueryBits(r, c, row)
			if pastFeatures(row, feat) {
				return OnlineResult{}, fmt.Errorf("core: oracle answer %d sets bits past its %d features", done+k, feat)
			}
			chunk.Y[k] = c
		}
		preds = predictDatasetInto(d.Classifier, preds, chunk)
		for k, p := range preds {
			if p == chunk.Y[k] {
				hits++
			}
		}
	}
	aPrime := float64(hits) / float64(queries)
	verdict, err := stats.Decide(d.Accuracy, t, aPrime, queries, 3)
	if err != nil {
		return OnlineResult{}, err
	}
	return OnlineResult{Queries: queries, Accuracy: aPrime, Verdict: verdict}, nil
}

// GameResult summarizes repeated CIPHER/RANDOM identification games.
type GameResult struct {
	Games, Correct, Inconclusive int
}

// SuccessRate returns the fraction of games identified correctly.
func (g GameResult) SuccessRate() float64 {
	if g.Games == 0 {
		return 0
	}
	return float64(g.Correct) / float64(g.Games)
}

// PlayGames runs the classical distinguisher game n times: a secret
// fair coin picks ORACLE ∈ {CIPHER, RANDOM}, the distinguisher issues
// queriesPerGame online queries and must name the oracle. Inconclusive
// verdicts count as failures (tracked separately).
func (d *Distinguisher) PlayGames(n, queriesPerGame int, seed uint64) (GameResult, error) {
	r := prng.New(seed ^ 0x9e3779b97f4a7c15)
	var res GameResult
	for i := 0; i < n; i++ {
		secretCipher := r.Intn(2) == 1
		var o Oracle
		if secretCipher {
			o = CipherOracle{S: d.Scenario}
		} else {
			o = RandomOracle{S: d.Scenario}
		}
		out, err := d.Distinguish(o, queriesPerGame, r)
		if err != nil {
			return res, err
		}
		res.Games++
		switch out.Verdict {
		case stats.VerdictCipher:
			if secretCipher {
				res.Correct++
			}
		case stats.VerdictRandom:
			if !secretCipher {
				res.Correct++
			}
		default:
			res.Inconclusive++
		}
	}
	return res, nil
}

// Complexity reports the log2 data complexities of a trained
// distinguisher alongside the paper's headline numbers.
type Complexity struct {
	OfflineLog2 float64
	OnlineLog2  float64
}

// Complexity returns the realized offline complexity and the online
// complexity needed at 4σ for this distinguisher's accuracy.
func (d *Distinguisher) Complexity() (Complexity, error) {
	n, err := stats.OnlineQueriesFor(d.Accuracy, d.Scenario.Classes(), 4)
	if err != nil {
		return Complexity{}, err
	}
	return Complexity{
		OfflineLog2: math.Log2(float64(d.TrainSamples)),
		OnlineLog2:  math.Log2(float64(n)),
	}, nil
}
