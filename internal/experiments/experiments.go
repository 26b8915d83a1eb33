// Package experiments regenerates every table and figure of the
// paper's evaluation from this repository's implementations. It is the
// single source used by cmd/tables, cmd/archsearch and the root
// benchmark harness, so that "the numbers in the README" and "the
// numbers the benches print" can never drift apart.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gift"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/trails"
)

// Scale selects the data budget of the learning experiments.
type Scale struct {
	TrainPerClass int
	ValPerClass   int
	Epochs        int
	Hidden        int
	// Workers is the per-batch training worker count handed to
	// nn.FitConfig (0 = GOMAXPROCS). Results are byte-identical at
	// every value, so Scale comparisons never confound parallelism
	// with numerics.
	Workers int
}

// QuickScale finishes the full Table 2 in roughly a minute on a laptop
// CPU; strong at 6–7 rounds, underpowered for 8-round significance.
func QuickScale() Scale { return Scale{TrainPerClass: 8192, ValPerClass: 2048, Epochs: 5, Hidden: 128} }

// PaperScale matches the paper's 2^17.6 ≈ 198k offline samples
// (99k per class at t = 2) and 20 training epochs.
func PaperScale() Scale {
	return Scale{TrainPerClass: 99000, ValPerClass: 10000, Epochs: 20, Hidden: 128}
}

// ---------------------------------------------------------------------------
// Table 1 — optimal trail weights and their constructive verification.

// Table1Row pairs a published optimal weight with this repository's
// empirical and exact evidence for it.
type Table1Row struct {
	Rounds      int
	PaperWeight int
	// EmpiricalProb is the Monte-Carlo probability of this round
	// count's constructive trail (rounds 1–3), or of the best observed
	// output difference (round 4); NaN beyond that (sampling cannot
	// reach weight ≥ 12).
	EmpiricalProb float64
	// ExactWeight is the algebraically proven Equation-2 weight of the
	// constructive trail (rounds 1–3; NaN beyond), from the GF(2)
	// rank computation in internal/trails.
	ExactWeight float64
	// GreedyUpperBound is the weight of the greedy trail extension —
	// a certified upper bound on the optimal weight.
	GreedyUpperBound float64
	// Verified reports whether the evidence is consistent with the
	// published weight.
	Verified bool
	Note     string
}

// Table1 verifies the low-round rows of Table 1 by sampling and quotes
// the published weights beyond sampling reach.
func Table1(samples int, seed uint64) []Table1Row {
	if samples <= 0 {
		samples = 20000
	}
	r := prng.New(seed)
	rows := make([]Table1Row, 8)
	constructive := []trails.Delta{
		trails.TwoRoundTrailInput, trails.OneRoundTrailOutput,
		trails.TwoRoundTrailOutput, trails.ThreeRoundTrailOutput,
	}
	for i := range rows {
		rounds := i + 1
		w, _ := trails.OptimalWeight(rounds)
		row := Table1Row{
			Rounds:        rounds,
			PaperWeight:   w,
			EmpiricalProb: math.NaN(),
			ExactWeight:   math.NaN(),
		}
		// Greedy upper bound via the exact SP-box transition algebra.
		_, greedy := trails.GreedyTrail(trails.TwoRoundTrailInput, 24, rounds)
		row.GreedyUpperBound = greedy
		switch rounds {
		case 1, 2, 3:
			exact, ok := trails.ExactTrailWeight(constructive[:rounds+1], 24)
			if ok {
				row.ExactWeight = exact
			}
			p := trails.EstimateDP(constructive[0], constructive[rounds], rounds, samples, r)
			row.EmpiricalProb = p
			row.Verified = ok && exact == float64(w) &&
				math.Abs(p-math.Exp2(-exact)) < 0.02
			row.Note = "constructive trail, weight proven exactly"
		case 4:
			_, p := trails.BestObservedDiff(trails.TwoRoundTrailInput, 4, samples, r)
			row.EmpiricalProb = p
			row.Verified = p >= math.Exp2(-7) && greedy >= float64(w)
			row.Note = "best sampled differential ≥ 2^-7; greedy upper bound"
		default:
			row.Note = "published SAT/SMT weight (greedy upper bound shown)"
			row.Verified = greedy >= float64(w)
		}
		rows[i] = row
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table 2 — neural distinguisher accuracies on GIMLI-HASH/GIMLI-CIPHER.

// Table2Row is one cell pair of Table 2.
type Table2Row struct {
	Target     string // "gimli-hash" or "gimli-cipher"
	Rounds     int
	PaperAcc   float64
	Accuracy   float64 // measured validation accuracy
	TrainAcc   float64
	Zscore     float64 // significance of accuracy vs 1/2
	TrainTime  time.Duration
	TrainData  int
	OnlineData int // 4σ online queries implied by the accuracy
}

// Table2PaperAcc are the published accuracies.
var Table2PaperAcc = map[string][3]float64{
	"gimli-hash":   {0.9689, 0.7229, 0.5219},
	"gimli-cipher": {0.9528, 0.6340, 0.5099},
}

// Table2 trains the paper's 6/7/8-round distinguishers for both
// targets at the given scale. progress, if non-nil, receives one line
// per trained cell.
func Table2(sc Scale, seed uint64, progress func(string)) ([]Table2Row, error) {
	var rows []Table2Row
	for _, target := range []string{"gimli-hash", "gimli-cipher"} {
		for i, rounds := range []int{6, 7, 8} {
			row, err := Table2Cell(target, rounds, sc, seed)
			if err != nil {
				return nil, err
			}
			row.PaperAcc = Table2PaperAcc[target][i]
			rows = append(rows, row)
			if progress != nil {
				progress(fmt.Sprintf("%s %d rounds: accuracy %.4f (paper %.4f) in %s",
					target, rounds, row.Accuracy, row.PaperAcc, row.TrainTime.Round(time.Millisecond)))
			}
		}
	}
	return rows, nil
}

// Table2Cell trains one cell of Table 2.
func Table2Cell(target string, rounds int, sc Scale, seed uint64) (Table2Row, error) {
	var s core.Scenario
	switch target {
	case "gimli-hash":
		sc2, err := core.NewGimliHashScenario(rounds)
		if err != nil {
			return Table2Row{}, err
		}
		s = sc2
	case "gimli-cipher":
		sc2, err := core.NewGimliCipherScenario(rounds)
		if err != nil {
			return Table2Row{}, err
		}
		s = sc2
	default:
		return Table2Row{}, fmt.Errorf("experiments: unknown Table 2 target %q", target)
	}
	c, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), sc.Hidden, seed)
	if err != nil {
		return Table2Row{}, err
	}
	c.Epochs = sc.Epochs
	c.Workers = sc.Workers
	start := time.Now()
	d, err := core.Train(s, c, core.TrainConfig{
		TrainPerClass: sc.TrainPerClass,
		ValPerClass:   sc.ValPerClass,
		Seed:          seed,
	})
	elapsed := time.Since(start)
	// ErrNoDistinguisher is a legitimate outcome at 8 rounds with small
	// data budgets; report the row anyway.
	if err != nil && d == nil {
		return Table2Row{}, err
	}
	row := Table2Row{
		Target:    target,
		Rounds:    rounds,
		Accuracy:  d.Accuracy,
		TrainAcc:  d.TrainAccuracy,
		Zscore:    stats.ZScore(d.Accuracy, 0.5, d.ValSamples),
		TrainTime: elapsed,
		TrainData: d.TrainSamples,
	}
	if n, err := stats.OnlineQueriesFor(d.Accuracy, s.Classes(), 4); err == nil {
		row.OnlineData = n
	}
	return row, nil
}

// ---------------------------------------------------------------------------
// Table 3 — manual architecture search on 8-round GIMLI-CIPHER.

// Table3Row is one architecture's result.
type Table3Row struct {
	Name         string
	Architecture string
	Activation   string
	Params       int // this implementation
	PaperParams  int
	TrainTime    time.Duration
	PaperTime    float64 // seconds, authors' GPU
	Accuracy     float64 // validation accuracy (fresh data)
	TrainAcc     float64 // training-set accuracy — the "a" Algorithm 2 reports
	PaperAcc     float64
	Err          string // non-empty if the cell failed
}

// Table3Config controls the architecture-search experiment. The paper
// used 2^17 samples and 5 epochs on 8-round GIMLI-CIPHER.
type Table3Config struct {
	Rounds        int
	TrainPerClass int
	ValPerClass   int
	Epochs        int
	Seed          uint64
	// Workers is the deterministic training worker count (0 =
	// GOMAXPROCS); accuracies do not depend on it.
	Workers int
	// Archs restricts the run to a subset of nn.Table3Names (nil = all).
	Archs []string
}

func (c *Table3Config) setDefaults() {
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.TrainPerClass <= 0 {
		c.TrainPerClass = 8192
	}
	if c.ValPerClass <= 0 {
		c.ValPerClass = 2048
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.Archs == nil {
		c.Archs = nn.Table3Names
	}
}

// Table3 runs the manual architecture search. progress, if non-nil,
// receives one line per architecture. Every architecture name and the
// round count are checked before any network trains.
func Table3(cfg Table3Config, progress func(string)) ([]Table3Row, error) {
	cfg.setDefaults()
	paper := map[string]nn.Table3PaperRow{}
	for _, r := range nn.Table3Paper {
		paper[r.Name] = r
	}
	for _, name := range cfg.Archs {
		if _, ok := paper[name]; !ok {
			return nil, fmt.Errorf("experiments: unknown architecture %q", name)
		}
	}
	s, err := core.NewGimliCipherScenario(cfg.Rounds)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, name := range cfg.Archs {
		p := paper[name]
		row := Table3Row{
			Name:         name,
			Architecture: p.Architecture,
			Activation:   p.Activation,
			PaperParams:  p.Params,
			PaperTime:    p.TrainSeconds,
			PaperAcc:     p.Accuracy,
		}
		c, err := core.NewTable3Classifier(name, s.FeatureLen(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		c.Epochs = cfg.Epochs
		c.Workers = cfg.Workers
		row.Params = c.Net.ParamCount()
		start := time.Now()
		d, err := core.Train(s, c, core.TrainConfig{
			TrainPerClass: cfg.TrainPerClass,
			ValPerClass:   cfg.ValPerClass,
			Seed:          cfg.Seed,
		})
		row.TrainTime = time.Since(start)
		if d != nil {
			row.Accuracy = d.Accuracy
			row.TrainAcc = d.TrainAccuracy
		}
		if err != nil && d == nil {
			row.Err = err.Error()
		}
		rows = append(rows, row)
		if progress != nil {
			progress(fmt.Sprintf("%-6s params=%-8d acc=%.4f trainAcc=%.4f (paper %.4f) time=%s",
				name, row.Params, row.Accuracy, row.TrainAcc, row.PaperAcc, row.TrainTime.Round(time.Millisecond)))
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 1 — the toy GIFT non-Markov demonstration.

// Figure1Result compares the exact and Markov characteristic
// probabilities of Section 2.1.
type Figure1Result struct {
	ExactProb       float64
	ExactWeight     float64
	MarkovProb      float64
	MarkovWeight    float64
	Round1Prob      float64
	Round2Prob      float64
	ValidInputCount int
}

// Figure1 runs the exhaustive toy-cipher enumeration.
func Figure1() Figure1Result {
	rep := gift.Exhaustive(gift.PaperCharacteristic)
	return Figure1Result{
		ExactProb:       rep.ExactProb,
		ExactWeight:     -math.Log2(rep.ExactProb),
		MarkovProb:      rep.MarkovProb,
		MarkovWeight:    -math.Log2(rep.MarkovProb),
		Round1Prob:      rep.Round1Prob,
		Round2Prob:      rep.Round2Prob,
		ValidInputCount: len(rep.ValidInputs),
	}
}

// ---------------------------------------------------------------------------
// Complexity comparison (Section 4 / conclusion).

// ComplexityRow compares classical and ML distinguishing complexity
// for one round count.
type ComplexityRow struct {
	Rounds        int
	ClassicalLog2 float64
	MLOfflineLog2 float64
	MLOnlineLog2  float64
}

// ComplexityTable reproduces the "cube root" comparison for 1–8
// rounds using the paper's reported ML complexities for 8 rounds.
func ComplexityTable() []ComplexityRow {
	rows := make([]ComplexityRow, 8)
	pc := trails.PaperComplexity()
	for i := range rows {
		w, _ := trails.OptimalWeight(i + 1)
		rows[i] = ComplexityRow{
			Rounds:        i + 1,
			ClassicalLog2: float64(w),
			MLOfflineLog2: pc.OfflineLog2,
			MLOnlineLog2:  pc.OnlineLog2,
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Section 3.1 — expected random accuracy E/t.

// RandomAccuracyRow is one row of the E/t illustration.
type RandomAccuracyRow struct {
	T        int
	Expected float64
}

// RandomAccuracyTable evaluates Section 3.1's expectation for a few
// class counts, including the paper's examples t = 2 and t = 32.
func RandomAccuracyTable() []RandomAccuracyRow {
	var rows []RandomAccuracyRow
	for _, t := range []int{2, 4, 8, 16, 32} {
		e, err := stats.ExpectedRandomAccuracy(t)
		if err != nil {
			continue
		}
		rows = append(rows, RandomAccuracyRow{T: t, Expected: e})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Classifier ablation (conclusion: SVM instead of NN; plus analytic
// baseline). Not a paper table, but the design-choice ablation the
// repository documents in DESIGN.md.

// AblationRow is one classifier's result on a fixed scenario.
type AblationRow struct {
	Classifier string
	Accuracy   float64
	TrainTime  time.Duration
	Err        string
}

// ClassifierAblation trains each available classifier family on the
// same round-reduced GIMLI-CIPHER scenario.
func ClassifierAblation(rounds int, sc Scale, seed uint64) ([]AblationRow, error) {
	s, err := core.NewGimliCipherScenario(rounds)
	if err != nil {
		return nil, err
	}
	mlp, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), sc.Hidden, seed)
	if err != nil {
		return nil, err
	}
	mlp.Epochs = sc.Epochs
	mlp.Workers = sc.Workers
	svmC, err := svm.NewLinearSVM(s.FeatureLen(), s.Classes(), 0, sc.Epochs, seed)
	if err != nil {
		return nil, err
	}
	logC, err := svm.NewLogistic(s.FeatureLen(), s.Classes(), 0, sc.Epochs, 0, seed)
	if err != nil {
		return nil, err
	}
	bb, err := core.NewBitBiasClassifier(s.FeatureLen(), s.Classes())
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, c := range []core.Classifier{mlp, svmC, logC, bb} {
		start := time.Now()
		d, err := core.Train(s, c, core.TrainConfig{
			TrainPerClass: sc.TrainPerClass,
			ValPerClass:   sc.ValPerClass,
			Seed:          seed,
		})
		row := AblationRow{Classifier: c.Name(), TrainTime: time.Since(start)}
		if d != nil {
			row.Accuracy = d.Accuracy
		}
		if err != nil && d == nil {
			row.Err = err.Error()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatDuration renders a duration for table output.
func FormatDuration(d time.Duration) string {
	return d.Round(10 * time.Millisecond).String()
}

// Pad right-pads s to width.
func Pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}
