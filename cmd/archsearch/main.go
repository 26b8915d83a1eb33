// Command archsearch reproduces Table 3 of the paper: the manual
// neural-architecture search on 8-round GIMLI-CIPHER across six MLPs,
// two LSTMs and two CNNs. It is a focused front-end for the same
// experiment code as `tables -table 3`, with per-architecture
// selection for quick iteration.
//
// Examples:
//
//	archsearch                       # all ten architectures, quick scale
//	archsearch -archs mlp2,mlp3      # a subset
//	archsearch -rounds 7 -epochs 10  # off-paper exploration
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/nn"
)

// validateFlags rejects counts below 1 up front. Table3Config treats
// such values as "use the default", so they would otherwise run a
// different experiment than the header printed for it claims.
func validateFlags(rounds, train, val, epochs int) error {
	atLeast1 := func(name string, v int) error {
		if v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", name, v)
		}
		return nil
	}
	return errors.Join(atLeast1("rounds", rounds), atLeast1("train", train),
		atLeast1("val", val), atLeast1("epochs", epochs))
}

func main() {
	var (
		archsFlag = flag.String("archs", "", "comma-separated subset of: "+strings.Join(nn.Table3Names, ","))
		rounds    = flag.Int("rounds", 8, "GIMLI-CIPHER rounds")
		train     = flag.Int("train", 8192, "training samples per class (paper: 2^17 total)")
		val       = flag.Int("val", 2048, "validation samples per class")
		epochs    = flag.Int("epochs", 5, "training epochs (paper: 5)")
		seed      = flag.Uint64("seed", 2020, "experiment seed")
	)
	flag.Parse()

	if err := validateFlags(*rounds, *train, *val, *epochs); err != nil {
		fmt.Fprintln(os.Stderr, "archsearch:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Table3Config{
		Rounds:        *rounds,
		TrainPerClass: *train,
		ValPerClass:   *val,
		Epochs:        *epochs,
		Seed:          *seed,
	}
	if *archsFlag != "" {
		cfg.Archs = strings.Split(*archsFlag, ",")
	}

	fmt.Printf("manual architecture search: %d-round GIMLI-CIPHER, %d train/class, %d epochs\n",
		*rounds, *train, *epochs)
	rows, err := experiments.Table3(cfg, func(line string) {
		fmt.Fprintln(os.Stderr, "  ...", line)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "archsearch:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Println("arch    params    accuracy  train-acc  paper-acc  train-time   note")
	for _, r := range rows {
		note := ""
		if r.Err != "" {
			note = "no distinguisher at this budget"
		}
		if r.Params != r.PaperParams {
			if note != "" {
				note += "; "
			}
			note += fmt.Sprintf("paper prints %d params (see DESIGN.md)", r.PaperParams)
		}
		fmt.Printf("%-6s  %8d  %8.4f  %9.4f  %9.4f  %11s  %s\n",
			r.Name, r.Params, r.Accuracy, r.TrainAcc, r.PaperAcc,
			experiments.FormatDuration(r.TrainTime), note)
	}
}
