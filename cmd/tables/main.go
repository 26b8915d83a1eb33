// Command tables regenerates the tables and figures of the paper and
// prints paper-vs-measured comparisons.
//
// Usage:
//
//	tables -all                 # everything at quick scale
//	tables -table 1             # Table 1 (optimal trail weights)
//	tables -table 2             # Table 2 (neural distinguisher accuracy)
//	tables -table 3             # Table 3 (architecture search)
//	tables -table complexity    # classical-vs-ML data complexity
//	tables -table e             # Section 3.1 expected random accuracy
//	tables -table ablation      # classifier family ablation (extension)
//	tables -figure 1            # Figure 1 toy GIFT example
//	tables -table 2 -paper-scale  # full 2^17.6-sample run (slow on CPU)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/bias"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prng"
	"repro/internal/profiling"
)

// out is swapped for a buffer by the tests.
var out io.Writer = os.Stdout

// tableNames and figureNames list the values -table and -figure
// accept; the dispatch chain in main covers exactly these.
var (
	tableNames  = []string{"1", "2", "3", "complexity", "e", "ablation", "multiclass", "sweep", "bias", "ciphers"}
	figureNames = []string{"1"}
)

// validateFlags rejects bad flag values up front so a typo surfaces
// as a usage error listing what is registered, not as silent no-op
// output or a mid-run failure.
func validateFlags(table, figure string, rounds, workers int) error {
	if rounds < 1 {
		return fmt.Errorf("-rounds must be at least 1, got %d", rounds)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	if table != "" && !slices.Contains(tableNames, table) {
		return fmt.Errorf("unknown -table %q (registered tables: %s)",
			table, strings.Join(tableNames, ", "))
	}
	if figure != "" && !slices.Contains(figureNames, figure) {
		return fmt.Errorf("unknown -figure %q (registered figures: %s)",
			figure, strings.Join(figureNames, ", "))
	}
	return nil
}

func main() {
	var (
		table      = flag.String("table", "", "table to regenerate: "+strings.Join(tableNames, ", "))
		figure     = flag.String("figure", "", "figure to regenerate: 1")
		all        = flag.Bool("all", false, "regenerate everything")
		paperScale = flag.Bool("paper-scale", false, "use the paper's full data budget (2^17.6 samples, 20 epochs)")
		seed       = flag.Uint64("seed", 2020, "experiment seed")
		samples    = flag.Int("samples", 20000, "Monte-Carlo samples for Table 1 verification")
		rounds     = flag.Int("rounds", 8, "round count for Table 3 / ablation")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "training workers per mini-batch (must be >= 1); results are byte-identical at any value")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if err := validateFlags(*table, *figure, *rounds, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}

	sc := experiments.QuickScale()
	if *paperScale {
		sc = experiments.PaperScale()
	}
	sc.Workers = *workers

	ran := false
	run := func(name string, f func() error) {
		ran = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", name, err)
			stopProfiles() // partial profiles beat none; os.Exit skips defers
			os.Exit(1)
		}
	}

	if *all || *table == "1" {
		run("table 1", func() error { return printTable1(*samples, *seed) })
	}
	if *all || *table == "2" {
		run("table 2", func() error { return printTable2(sc, *seed) })
	}
	if *all || *table == "3" {
		run("table 3", func() error { return printTable3(sc, *rounds, *seed) })
	}
	if *all || *table == "complexity" {
		run("complexity", printComplexity)
	}
	if *all || *table == "e" {
		run("expected accuracy", printRandomAccuracy)
	}
	if *all || *table == "ablation" {
		run("ablation", func() error { return printAblation(sc, *rounds, *seed) })
	}
	if *all || *table == "multiclass" {
		run("multiclass", func() error { return printMulticlass(sc, *seed) })
	}
	if *all || *table == "sweep" {
		run("sweep", func() error { return printSweep(sc, *seed) })
	}
	if *all || *table == "bias" {
		run("bias", func() error { return printBias(*seed) })
	}
	if *all || *table == "ciphers" {
		run("ciphers", func() error { return printCiphers(sc, *seed) })
	}
	if *all || *figure == "1" {
		run("figure 1", printFigure1)
	}
	if !ran {
		flag.Usage()
		stopProfiles()
		os.Exit(2)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func printTable1(samples int, seed uint64) error {
	fmt.Fprintln(out, "Table 1: optimal differential trail weights for round-reduced GIMLI")
	fmt.Fprintln(out, "rounds  paper-weight  exact  greedy-bound  empirical-prob  verified  note")
	for _, row := range experiments.Table1(samples, seed) {
		prob := "—"
		if !math.IsNaN(row.EmpiricalProb) {
			prob = fmt.Sprintf("%.4f (2^%.2f)", row.EmpiricalProb, math.Log2(row.EmpiricalProb))
		}
		exact := "—"
		if !math.IsNaN(row.ExactWeight) {
			exact = fmt.Sprintf("%.0f", row.ExactWeight)
		}
		fmt.Fprintf(out, "%6d  %12d  %5s  %12.0f  %-16s  %-8v  %s\n",
			row.Rounds, row.PaperWeight, exact, row.GreedyUpperBound, prob, row.Verified, row.Note)
	}
	fmt.Fprintln(out)
	return nil
}

func printTable2(sc experiments.Scale, seed uint64) error {
	fmt.Fprintf(out, "Table 2: neural distinguisher accuracy (train %d/class, %d epochs)\n",
		sc.TrainPerClass, sc.Epochs)
	rows, err := experiments.Table2(sc, seed, func(line string) {
		fmt.Fprintln(os.Stderr, "  ...", line)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "target        rounds  accuracy  paper    z-score  online-queries(4σ)  train-time")
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s  %6d  %8.4f  %.4f  %7.1f  %18d  %s\n",
			r.Target, r.Rounds, r.Accuracy, r.PaperAcc, r.Zscore, r.OnlineData,
			experiments.FormatDuration(r.TrainTime))
	}
	fmt.Fprintln(out)
	return nil
}

func printTable3(sc experiments.Scale, rounds int, seed uint64) error {
	fmt.Fprintf(out, "Table 3: manual architecture search on %d-round GIMLI-CIPHER\n", rounds)
	rows, err := experiments.Table3(experiments.Table3Config{
		Rounds:        rounds,
		TrainPerClass: sc.TrainPerClass,
		ValPerClass:   sc.ValPerClass,
		Epochs:        sc.Epochs,
		Seed:          seed,
		Workers:       sc.Workers,
	}, func(line string) { fmt.Fprintln(os.Stderr, "  ...", line) })
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "arch    architecture                          act          params    paper-params  accuracy  paper-acc  train-time  paper-time(GPU)")
	for _, r := range rows {
		fmt.Fprintf(out, "%-6s  %-36s  %-11s  %8d  %12d  %8.4f  %9.4f  %10s  %8.1fs\n",
			r.Name, r.Architecture, r.Activation, r.Params, r.PaperParams,
			r.Accuracy, r.PaperAcc, experiments.FormatDuration(r.TrainTime), r.PaperTime)
	}
	fmt.Fprintln(out)
	return nil
}

func printComplexity() error {
	fmt.Fprintln(out, "Distinguishing data complexity: classical optimal trail vs the paper's ML distinguisher")
	fmt.Fprintln(out, "rounds  classical(log2)  ml-offline(log2)  ml-online(log2)")
	for _, r := range experiments.ComplexityTable() {
		fmt.Fprintf(out, "%6d  %15.0f  %16.1f  %15.1f\n",
			r.Rounds, r.ClassicalLog2, r.MLOfflineLog2, r.MLOnlineLog2)
	}
	fmt.Fprintln(out, "(8 rounds: 2^52 classical vs 2^17.6 offline + 2^14.3 online — the 'cube root' claim)")
	fmt.Fprintln(out)
	return nil
}

func printRandomAccuracy() error {
	fmt.Fprintln(out, "Section 3.1: expected classification accuracy on RANDOM data (E/t)")
	fmt.Fprintln(out, "t       E/t")
	for _, r := range experiments.RandomAccuracyTable() {
		fmt.Fprintf(out, "%-6d  %.5f\n", r.T, r.Expected)
	}
	fmt.Fprintln(out)
	return nil
}

func printAblation(sc experiments.Scale, rounds int, seed uint64) error {
	fmt.Fprintf(out, "Classifier ablation on %d-round GIMLI-CIPHER (extension; conclusion of the paper)\n", rounds)
	rows, err := experiments.ClassifierAblation(rounds, sc, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "classifier         accuracy  train-time  note")
	for _, r := range rows {
		note := ""
		if r.Err != "" {
			note = r.Err
		}
		fmt.Fprintf(out, "%-17s  %8.4f  %10s  %s\n",
			r.Classifier, r.Accuracy, experiments.FormatDuration(r.TrainTime), note)
	}
	fmt.Fprintln(out)
	return nil
}

func printFigure1() error {
	res := experiments.Figure1()
	fmt.Fprintln(out, "Figure 1 / Section 2.1: 2-round unkeyed GIFT toy cipher")
	fmt.Fprintf(out, "characteristic ΔY1=(2,3) → ΔW1=(5,8) → ΔY2=(6,2) → ΔW2=(2,5)\n")
	fmt.Fprintf(out, "  exact probability (exhaustive):  2^-%.0f (%d of 256 inputs)\n", res.ExactWeight, res.ValidInputCount)
	fmt.Fprintf(out, "  Markov/Equation-2 product:       2^-%.0f\n", res.MarkovWeight)
	fmt.Fprintf(out, "  round 1 in isolation:            2^%.0f\n", math.Log2(res.Round1Prob))
	fmt.Fprintf(out, "  round 2 in isolation:            2^%.0f\n", math.Log2(res.Round2Prob))
	fmt.Fprintln(out, "  → without round keys the rounds are correlated and Equation 2 underestimates by 2^3")
	fmt.Fprintln(out)
	return nil
}

func printMulticlass(sc experiments.Scale, seed uint64) error {
	fmt.Fprintln(out, "Multi-class sweep on 6-round GIMLI-CIPHER (extension; Algorithm 2 at t > 2)")
	rows, err := experiments.MulticlassSweep(6, sc, seed)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.FormatMulticlass(rows))
	fmt.Fprintln(out)
	return nil
}

func printSweep(sc experiments.Scale, seed uint64) error {
	fmt.Fprintln(out, "Accuracy-vs-rounds sweep (extension; the curve behind Table 2)")
	for _, target := range []string{"gimli-hash", "gimli-cipher"} {
		rows, err := experiments.RoundSweep(target, 4, 9, sc, seed, func(line string) {
			fmt.Fprintln(os.Stderr, "  ...", line)
		})
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatSweep(rows))
		for _, p := range experiments.OnlineQueriesCurve(rows) {
			fmt.Fprintf(out, "  %d rounds → %d online queries at 4σ\n", p.Rounds, p.OnlineQueries)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func printCiphers(sc experiments.Scale, seed uint64) error {
	fmt.Fprintln(out, "New-cipher sweep (extension): SPECK baseline plus SIMON/SIMECK/Chaskey")
	fmt.Fprintln(out, "at registered rounds; -rk rows use the related-key difference ∇ of Lu et al.")
	rows, err := experiments.CipherTable(nil, sc, seed, func(line string) {
		fmt.Fprintln(os.Stderr, "  ...", line)
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.FormatCipherTable(rows))
	fmt.Fprintln(out)
	return nil
}

func printBias(seed uint64) error {
	fmt.Fprintln(out, "Per-bit class-gap heat map of Δc0 (extension; what the classifier learns)")
	fmt.Fprintln(out, "Each cell covers 4 of the 128 observed bits; darker = larger per-bit gap")
	fmt.Fprintln(out, "between the two nonce-difference classes of the GIMLI-CIPHER scenario.")
	const perClass = 2000
	for rounds := 4; rounds <= 9; rounds++ {
		s, err := core.NewGimliCipherScenario(rounds)
		if err != nil {
			return err
		}
		p, err := bias.Measure(s, perClass, prng.New(seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d rounds |%s| single-bit bound %.4f\n", rounds, p.Heat(4), p.NaiveAccuracyBound())
	}
	// The bound is a max over 128 noisy estimates: under pure noise the
	// expected maximum gap is ≈ 3·sqrt(1/(2·n))·sqrt(2), so values near
	// the floor carry no signal.
	floor := 0.5 + 3*math.Sqrt(1/(2*float64(perClass)))*math.Sqrt2/2
	fmt.Fprintf(out, "(noise floor for this sample size ≈ %.3f — bounds below it are not signal;\n", floor)
	fmt.Fprintln(out, " the NN's 7-8 round advantage comes from cross-bit structure, not single bits)")
	fmt.Fprintln(out)
	return nil
}
