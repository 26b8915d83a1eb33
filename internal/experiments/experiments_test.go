package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTable1Rows(t *testing.T) {
	rows := Table1(4000, 1)
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, row := range rows {
		if row.Rounds != i+1 {
			t.Errorf("row %d has rounds %d", i, row.Rounds)
		}
		if !row.Verified {
			t.Errorf("round %d not verified: %+v", row.Rounds, row)
		}
	}
	if rows[0].EmpiricalProb != 1 || rows[1].EmpiricalProb != 1 {
		t.Error("rounds 1-2 should be probability 1")
	}
	if math.Abs(rows[2].EmpiricalProb-0.25) > 0.03 {
		t.Errorf("round 3 probability %v", rows[2].EmpiricalProb)
	}
	if rows[7].PaperWeight != 52 {
		t.Errorf("round 8 weight %d", rows[7].PaperWeight)
	}
	// The exact column must equal the paper weight where proven.
	for i := 0; i < 3; i++ {
		if rows[i].ExactWeight != float64(rows[i].PaperWeight) {
			t.Errorf("round %d exact weight %v != paper %d", i+1, rows[i].ExactWeight, rows[i].PaperWeight)
		}
	}
	// Greedy bounds are valid upper bounds everywhere.
	for _, row := range rows {
		if row.GreedyUpperBound < float64(row.PaperWeight) {
			t.Errorf("round %d greedy bound %v below optimal %d", row.Rounds, row.GreedyUpperBound, row.PaperWeight)
		}
	}
}

func TestTable2CellQuick(t *testing.T) {
	// A tiny 5-round cell: just validates plumbing and significance.
	sc := Scale{TrainPerClass: 1024, ValPerClass: 512, Epochs: 3, Hidden: 64}
	row, err := Table2Cell("gimli-cipher", 5, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Accuracy < 0.8 {
		t.Fatalf("5-round accuracy %v", row.Accuracy)
	}
	if row.TrainData != 2048 {
		t.Fatalf("train data accounting %d", row.TrainData)
	}
	if row.OnlineData <= 0 {
		t.Fatal("online data not computed")
	}
	if row.TrainTime <= 0 {
		t.Fatal("training time not recorded")
	}
}

func TestTable2CellUnknownTarget(t *testing.T) {
	if _, err := Table2Cell("des", 6, QuickScale(), 1); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestTable3SingleArch(t *testing.T) {
	rows, err := Table3(Table3Config{
		Rounds:        5, // low rounds so even 1 epoch separates
		TrainPerClass: 512,
		ValPerClass:   256,
		Epochs:        1,
		Seed:          1,
		Archs:         []string{"mlp2"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Params != 150658 {
		t.Fatalf("mlp2 params %d", rows[0].Params)
	}
	if rows[0].PaperParams != 150658 || rows[0].PaperAcc != 0.5462 {
		t.Fatalf("paper row wiring wrong: %+v", rows[0])
	}
	if rows[0].Accuracy < 0.7 {
		t.Fatalf("mlp2 at 5 rounds reached only %v", rows[0].Accuracy)
	}
}

// TestTable3UnknownArch: an unknown name fails the whole run before any
// architecture trains, also when it follows a known one.
func TestTable3UnknownArch(t *testing.T) {
	trained := func(line string) { t.Errorf("trained before rejecting: %s", line) }
	for _, archs := range [][]string{{"vgg16"}, {"mlp2", "vgg16"}} {
		cfg := Table3Config{TrainPerClass: 64, ValPerClass: 64, Epochs: 1, Archs: archs}
		if _, err := Table3(cfg, trained); err == nil {
			t.Errorf("%v accepted", archs)
		}
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	res := Figure1()
	if res.ExactProb != math.Exp2(-6) {
		t.Errorf("exact prob %v", res.ExactProb)
	}
	if res.MarkovProb != math.Exp2(-9) {
		t.Errorf("markov prob %v", res.MarkovProb)
	}
	if res.ExactWeight != 6 || res.MarkovWeight != 9 {
		t.Errorf("weights %v/%v", res.ExactWeight, res.MarkovWeight)
	}
	if res.ValidInputCount != 4 {
		t.Errorf("valid inputs %d", res.ValidInputCount)
	}
}

func TestComplexityTable(t *testing.T) {
	rows := ComplexityTable()
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	last := rows[7]
	if last.ClassicalLog2 != 52 || last.MLOfflineLog2 != 17.6 || last.MLOnlineLog2 != 14.3 {
		t.Fatalf("8-round row %+v", last)
	}
}

func TestRandomAccuracyTable(t *testing.T) {
	rows := RandomAccuracyTable()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].T != 2 || rows[0].Expected != 0.5 {
		t.Fatalf("t=2 row %+v", rows[0])
	}
	if rows[4].T != 32 || math.Abs(rows[4].Expected-0.03125) > 1e-12 {
		t.Fatalf("t=32 row %+v", rows[4])
	}
}

func TestClassifierAblationQuick(t *testing.T) {
	sc := Scale{TrainPerClass: 1024, ValPerClass: 512, Epochs: 2, Hidden: 32}
	rows, err := ClassifierAblation(4, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d classifiers", len(rows))
	}
	for _, row := range rows {
		if row.Err != "" {
			t.Errorf("%s failed: %s", row.Classifier, row.Err)
			continue
		}
		if row.Accuracy < 0.8 {
			t.Errorf("%s accuracy %v at 4 rounds", row.Classifier, row.Accuracy)
		}
	}
}

func TestScales(t *testing.T) {
	q, p := QuickScale(), PaperScale()
	if q.TrainPerClass >= p.TrainPerClass {
		t.Fatal("quick scale not smaller than paper scale")
	}
	if 2*p.TrainPerClass < 190000 {
		t.Fatalf("paper scale %d per class is below 2^17.6 total", p.TrainPerClass)
	}
}

func TestHelpers(t *testing.T) {
	if got := Pad("ab", 4); got != "ab  " {
		t.Fatalf("Pad = %q", got)
	}
	if got := Pad("abcd", 2); got != "abcd" {
		t.Fatalf("Pad = %q", got)
	}
	if s := FormatDuration(1234 * time.Millisecond); !strings.Contains(s, "1.2") {
		t.Fatalf("FormatDuration = %q", s)
	}
}
