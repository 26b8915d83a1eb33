// Command distinguisher trains and evaluates a machine-learning
// differential distinguisher (Algorithm 2 of the paper) on a chosen
// target, then plays the CIPHER-vs-RANDOM oracle game with it.
//
// Examples:
//
//	distinguisher -target gimli-cipher -rounds 6
//	distinguisher -target gimli-hash -rounds 8 -train 99000 -epochs 20
//	distinguisher -target speck -rounds 5 -classifier svm
//	distinguisher -target trivium -rounds 288
//	distinguisher -target gimli-cipher -rounds 6 -arch mlp3
//	distinguisher -target gimli-cipher -rounds 6 -savedist d.gob
//	distinguisher -loaddist d.gob -games 50       # online phase only
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/svm"
)

func main() {
	var (
		target     = flag.String("target", "gimli-cipher", strings.Join(core.ScenarioNames(), " | "))
		rounds     = flag.Int("rounds", 6, "round-reduced rounds (trivium: init clocks)")
		train      = flag.Int("train", 8192, "training samples per class")
		val        = flag.Int("val", 2048, "validation samples per class")
		epochs     = flag.Int("epochs", 5, "training epochs")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "training workers per mini-batch (must be >= 1); trained weights are byte-identical at any value")
		hidden     = flag.Int("hidden", 128, "hidden width of the default MLP")
		arch       = flag.String("arch", "", "use a Table 3 architecture (mlp1..mlp6, lstm1, lstm2, cnn1, cnn2)")
		classifier = flag.String("classifier", "nn", "nn | svm | logistic | bitbias")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		games      = flag.Int("games", 20, "oracle games to play after training")
		queries    = flag.Int("queries", 0, "online queries per game (0 = auto from accuracy)")
		save       = flag.String("save", "", "save the trained network to this file (nn classifier only)")
		saveDist   = flag.String("savedist", "", "save the full trained distinguisher (scenario + accuracy + model)")
		loadDist   = flag.String("loaddist", "", "skip training: load a distinguisher saved with -savedist and run the online phase only")
		quiet      = flag.Bool("q", false, "suppress per-epoch progress")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if err := validateFlags(flagValues{
		target: *target, classifier: *classifier, loadDist: *loadDist,
		workers: *workers, epochs: *epochs, hidden: *hidden, train: *train, val: *val,
		games: *games, queries: *queries,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "distinguisher:", err)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distinguisher:", err)
		os.Exit(1)
	}

	if *loadDist != "" {
		err = runLoaded(*loadDist, *games, *queries, *seed)
	} else {
		err = run(*target, *rounds, *train, *val, *epochs, *hidden, *workers, *arch, *classifier,
			*seed, *games, *queries, *save, *saveDist, *quiet)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "distinguisher:", err)
		os.Exit(1)
	}
}

// classifierNames lists the -classifier values buildClassifier accepts.
var classifierNames = []string{"nn", "svm", "logistic", "bitbias"}

// flagValues holds the flags validateFlags checks.
type flagValues struct {
	target, classifier, loadDist                        string
	workers, epochs, hidden, train, val, games, queries int
}

// validateFlags rejects bad flag values before any work starts, so a
// typo surfaces as a usage error instead of a mid-run failure (left
// unchecked, -epochs 0 trained the classifier's default epoch count
// and -hidden -7 a 128-unit MLP). With -loaddist the scenario and the
// model come from the file, so -target, -classifier and the training
// sizes are not checked.
func validateFlags(f flagValues) error {
	atLeast := func(name string, v, min int) error {
		if v < min {
			return fmt.Errorf("-%s must be at least %d, got %d", name, min, v)
		}
		return nil
	}
	if err := errors.Join(atLeast("workers", f.workers, 1), atLeast("games", f.games, 0),
		atLeast("queries", f.queries, 0)); err != nil {
		return err
	}
	if f.loadDist != "" {
		return nil
	}
	if !slices.Contains(core.ScenarioNames(), f.target) {
		return fmt.Errorf("unknown -target %q (registered scenarios: %s)",
			f.target, strings.Join(core.ScenarioNames(), ", "))
	}
	if !slices.Contains(classifierNames, f.classifier) {
		return fmt.Errorf("unknown -classifier %q (want %s)",
			f.classifier, strings.Join(classifierNames, ", "))
	}
	return errors.Join(atLeast("epochs", f.epochs, 1), atLeast("hidden", f.hidden, 1),
		atLeast("train", f.train, 1), atLeast("val", f.val, 1))
}

// runLoaded is the online-only mode: the paper's workflow of storing
// the trained model (its ".h5" file) and reusing it to query oracles.
func runLoaded(path string, games, queries int, seed uint64) error {
	d, err := core.LoadDistinguisherFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("loaded distinguisher: scenario %s, offline accuracy %.4f (trained on %d samples)\n",
		d.Scenario.Name(), d.Accuracy, d.TrainSamples)
	if games <= 0 {
		games = 20
	}
	res, err := d.PlayGames(games, queries, seed)
	if err != nil {
		return err
	}
	fmt.Printf("identified the oracle correctly in %d/%d games (%.1f%%, %d inconclusive)\n",
		res.Correct, res.Games, 100*res.SuccessRate(), res.Inconclusive)
	return nil
}

// buildScenario delegates to the core registry; for "trivium" the
// rounds flag is the initialization clock count (full cipher: 1152).
func buildScenario(target string, rounds int) (core.Scenario, error) {
	return core.NewScenarioByName(target, rounds)
}

func buildClassifier(kind, arch string, s core.Scenario, hidden, epochs, workers int, seed uint64, quiet bool) (core.Classifier, *core.NNClassifier, error) {
	switch kind {
	case "nn":
		var c *core.NNClassifier
		var err error
		if arch != "" {
			c, err = core.NewTable3Classifier(arch, s.FeatureLen(), seed)
		} else {
			c, err = core.NewMLPClassifier(s.FeatureLen(), s.Classes(), hidden, seed)
		}
		if err != nil {
			return nil, nil, err
		}
		c.Epochs = epochs
		c.Workers = workers
		if !quiet {
			c.OnEpoch = func(e int, loss, acc float64) {
				fmt.Fprintf(os.Stderr, "  epoch %d: loss %.4f, acc %.4f\n", e+1, loss, acc)
			}
		}
		return c, c, nil
	case "svm":
		c, err := svm.NewLinearSVM(s.FeatureLen(), s.Classes(), 0, epochs, seed)
		return c, nil, err
	case "logistic":
		c, err := svm.NewLogistic(s.FeatureLen(), s.Classes(), 0, epochs, 0, seed)
		return c, nil, err
	case "bitbias":
		c, err := core.NewBitBiasClassifier(s.FeatureLen(), s.Classes())
		return c, nil, err
	default:
		return nil, nil, fmt.Errorf("unknown classifier %q", kind)
	}
}

func run(target string, rounds, train, val, epochs, hidden, workers int, arch, classifier string,
	seed uint64, games, queries int, save, saveDist string, quiet bool) error {

	s, err := buildScenario(target, rounds)
	if err != nil {
		return err
	}
	c, nnc, err := buildClassifier(classifier, arch, s, hidden, epochs, workers, seed, quiet)
	if err != nil {
		return err
	}

	fmt.Printf("offline phase: scenario %s, classifier %s, %d train + %d val per class\n",
		s.Name(), c.Name(), train, val)
	d, err := core.Train(s, c, core.TrainConfig{
		TrainPerClass: train,
		ValPerClass:   val,
		Seed:          seed,
	})
	if d != nil {
		fmt.Printf("training accuracy a = %.4f (train-set %.4f), baseline 1/t = %.4f\n",
			d.Accuracy, d.TrainAccuracy, 1/float64(s.Classes()))
	}
	if err != nil {
		return err
	}

	if comp, err := d.Complexity(); err == nil {
		fmt.Printf("data complexity: offline 2^%.1f, online (4σ) 2^%.1f  [paper 8-round: 2^17.6 / 2^14.3]\n",
			comp.OfflineLog2, comp.OnlineLog2)
	}

	if save != "" {
		if nnc == nil {
			return fmt.Errorf("-save requires -classifier nn")
		}
		if err := nnc.Net.SaveFile(save); err != nil {
			return err
		}
		fmt.Printf("model saved to %s\n", save)
	}
	if saveDist != "" {
		if err := core.SaveDistinguisherFile(saveDist, d, target, rounds); err != nil {
			return err
		}
		fmt.Printf("distinguisher saved to %s (reload with -loaddist)\n", saveDist)
	}

	if games > 0 {
		fmt.Printf("online phase: %d oracle games", games)
		if queries > 0 {
			fmt.Printf(" with %d queries each", queries)
		}
		fmt.Println()
		res, err := d.PlayGames(games, queries, seed)
		if err != nil {
			return err
		}
		fmt.Printf("identified the oracle correctly in %d/%d games (%.1f%%, %d inconclusive)\n",
			res.Correct, res.Games, 100*res.SuccessRate(), res.Inconclusive)
	}
	return nil
}
