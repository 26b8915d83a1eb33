package main

// online-games: a trained gimli-hash 7-round distinguisher plays
// CIPHER/RANDOM games at the paper's online budget. Traced, each game is
// rebuilt from Distinguish's public calls: the oracle query loop,
// Classifier.PredictBatch and stats.Decide.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/stats"
)

const (
	gameRounds = 7
	// gameQueries is the paper's online data complexity, ≈ 2^14.3.
	gameQueries = 20171
	// gameChunk mirrors the batch cap of core's Distinguish, so traced
	// games make the same PredictBatch calls as untraced ones.
	gameChunk = 4096
	// decideSigmas is the threshold Distinguish decides at.
	decideSigmas = 3
	// gameSeedMix is the constant PlayGames mixes into its seed.
	gameSeedMix = 0x9e3779b97f4a7c15
)

// trainDistinguisher runs the offline phase for a gimli-hash model at
// bench scale, seeded from the workload seed.
func trainDistinguisher(rounds int, seed uint64) (*core.Distinguisher, error) {
	s, err := core.NewGimliHashScenario(rounds)
	if err != nil {
		return nil, err
	}
	c, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), benchScale.Hidden, seed)
	if err != nil {
		return nil, err
	}
	c.Epochs = benchScale.Epochs
	return core.Train(s, c, core.TrainConfig{
		TrainPerClass: benchScale.TrainPerClass,
		ValPerClass:   benchScale.ValPerClass,
		Seed:          seed,
	})
}

func runOnlineGames(rc *runCtx) (*report, error) {
	d, setup, err := repeatSetup(func(int) (*core.Distinguisher, error) {
		return trainDistinguisher(gameRounds, rc.Seed)
	}, func(*core.Distinguisher) {})
	if err != nil {
		return nil, err
	}
	t := &tally{}
	seeds := seedList(rc.Seed^gameSeedMix, maxOps)
	m := startMeter()
	res, err := loop{Clients: 1}.run(rc.phase(), t, func(_, i int) error {
		g, err := d.PlayGames(1, gameQueries, seeds[i])
		if err != nil {
			return err
		}
		if g.Correct != 1 {
			return fmt.Errorf("game seed %d: verdict wrong (%d inconclusive)", seeds[i], g.Inconclusive)
		}
		return nil
	})
	use := m.finish()
	if err != nil {
		return nil, err
	}
	rep := &report{Setup: setup, Loop: res, Use: use, Tally: t}
	if rc.Trace {
		rep.Layers, err = traceGames(rc, t, d, seeds, median(res.Lat))
	}
	return rep, err
}

// gameTrace is one decomposed game.
type gameTrace struct {
	wall, query, predict, decide time.Duration
	queryAlloc                   uint64
}

// coverage is the share of the game's wall time its timed calls cover.
func (g gameTrace) coverage() float64 {
	return float64(g.query+g.predict+g.decide) / float64(g.wall)
}

func traceGames(rc *runCtx, t *tally, d *core.Distinguisher, seeds []uint64, untracedMS float64) (map[string]float64, error) {
	var traces []gameTrace
	correct := 0
	res, err := loop{Clients: 1}.run(rc.phase(), t, func(_, i int) error {
		gt, ok, err := tracedGame(d, seeds[i])
		if err != nil {
			return err
		}
		traces = append(traces, gt)
		if !ok {
			return fmt.Errorf("traced game seed %d: verdict wrong", seeds[i])
		}
		correct++
		if err := checkCoverage(gt.coverage()); err != nil {
			return fmt.Errorf("traced game seed %d: %w", seeds[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("no traced game completed")
	}
	col := func(f func(gameTrace) float64) float64 {
		xs := make([]float64, len(traces))
		for i, gt := range traces {
			xs[i] = f(gt)
		}
		return medianOf(xs)
	}
	q := float64(gameQueries)
	return map[string]float64{
		"core.query_ns":        col(func(g gameTrace) float64 { return float64(g.query.Nanoseconds()) / q }),
		"core.query_alloc_b":   col(func(g gameTrace) float64 { return float64(g.queryAlloc) / q }),
		"nn.predict_ns":        col(func(g gameTrace) float64 { return float64(g.predict.Nanoseconds()) / q }),
		"stats.decide_us":      col(func(g gameTrace) float64 { return float64(g.decide.Nanoseconds()) / 1e3 }),
		"stats.correct_ratio":  float64(correct) / float64(len(traces)),
		"trace.coverage_ratio": col(func(g gameTrace) float64 { return g.coverage() }),
		"trace.overhead_ratio": median(res.Lat) / untracedMS,
	}, nil
}

// tracedGame is PlayGames(1, gameQueries, seed) with Distinguish
// unrolled into its public calls, consuming the generator stream in the
// same order. It reports whether the verdict named the secret oracle.
func tracedGame(d *core.Distinguisher, seed uint64) (gameTrace, bool, error) {
	var gt gameTrace
	start := time.Now()
	r := prng.New(seed ^ gameSeedMix)
	secretCipher := r.Intn(2) == 1
	var o core.Oracle = core.RandomOracle{S: d.Scenario}
	if secretCipher {
		o = core.CipherOracle{S: d.Scenario}
	}
	t := d.Scenario.Classes()
	xs := make([][]float64, 0, gameChunk)
	hits := 0
	for done := 0; done < gameQueries; done += len(xs) {
		n := min(gameQueries-done, gameChunk)
		xs = xs[:0]
		a0 := heapAllocs()
		t0 := time.Now()
		for k := 0; k < n; k++ {
			xs = append(xs, o.Query(r, (done+k)%t))
		}
		gt.query += time.Since(t0)
		gt.queryAlloc += heapAllocs() - a0

		t0 = time.Now()
		pred := d.Classifier.PredictBatch(xs)
		gt.predict += time.Since(t0)
		for k, p := range pred {
			if p == (done+k)%t {
				hits++
			}
		}
	}
	t0 := time.Now()
	v, err := stats.Decide(d.Accuracy, t, float64(hits)/gameQueries, gameQueries, decideSigmas)
	gt.decide = time.Since(t0)
	gt.wall = time.Since(start)
	if err != nil {
		return gt, false, err
	}
	ok := (v == stats.VerdictCipher && secretCipher) || (v == stats.VerdictRandom && !secretCipher)
	return gt, ok, nil
}
