package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func captureOut(t *testing.T) *bytes.Buffer {
	t.Helper()
	buf := &bytes.Buffer{}
	old := out
	out = buf
	t.Cleanup(func() { out = old })
	return buf
}

func TestValidateFlags(t *testing.T) {
	for _, name := range tableNames {
		if err := validateFlags(name, "", 8, 1); err != nil {
			t.Errorf("table %q rejected: %v", name, err)
		}
	}
	if err := validateFlags("", "1", 1, 4); err != nil {
		t.Errorf("figure 1 rejected: %v", err)
	}
	// Counts below 1 are rejected by name: -rounds 0 would otherwise run
	// Table 3 at the default 8 rounds under a "0-round" header.
	for _, c := range []struct {
		flag            string
		rounds, workers int
	}{
		{"-workers", 8, 0},
		{"-workers", 8, -3},
		{"-rounds", 0, 1},
		{"-rounds", -2, 1},
	} {
		if err := validateFlags("3", "", c.rounds, c.workers); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("rounds=%d workers=%d: got %v, want an error naming %s", c.rounds, c.workers, err, c.flag)
		}
	}
	err := validateFlags("99", "", 8, 1)
	if err == nil {
		t.Fatal("unknown table accepted")
	}
	for _, name := range tableNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("table error %q does not list %q", err, name)
		}
	}
	if err := validateFlags("", "7", 8, 1); err == nil ||
		!strings.Contains(err.Error(), "registered figures") {
		t.Errorf("unknown figure gave %v", err)
	}
}

func TestPrintFigure1(t *testing.T) {
	buf := captureOut(t)
	if err := printFigure1(); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"2^-6", "2^-9", "4 of 256"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure 1 output missing %q:\n%s", want, s)
		}
	}
}

func TestPrintRandomAccuracy(t *testing.T) {
	buf := captureOut(t)
	if err := printRandomAccuracy(); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "0.50000") || !strings.Contains(s, "0.03125") {
		t.Fatalf("E/t output missing the paper's values:\n%s", s)
	}
}

func TestPrintComplexity(t *testing.T) {
	buf := captureOut(t)
	if err := printComplexity(); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "52") || !strings.Contains(s, "17.6") || !strings.Contains(s, "14.3") {
		t.Fatalf("complexity output missing headline numbers:\n%s", s)
	}
}

func TestPrintTable1(t *testing.T) {
	buf := captureOut(t)
	if err := printTable1(2000, 1); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "proven exactly") {
		t.Fatalf("table 1 output missing exact verification:\n%s", s)
	}
	if strings.Contains(s, "false") {
		t.Fatalf("table 1 contains an unverified row:\n%s", s)
	}
}

func TestPrintTable2QuickCell(t *testing.T) {
	// A tiny scale so the printer path is exercised end to end.
	buf := captureOut(t)
	sc := tinyScale()
	if err := printTable2(sc, 1); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "gimli-hash") || !strings.Contains(s, "gimli-cipher") {
		t.Fatalf("table 2 output missing targets:\n%s", s)
	}
}

func TestPrintMulticlassAndAblation(t *testing.T) {
	buf := captureOut(t)
	sc := tinyScale()
	if err := printMulticlass(sc, 1); err != nil {
		t.Fatal(err)
	}
	if err := printAblation(sc, 4, 1); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "baseline") || !strings.Contains(s, "bit-bias") {
		t.Fatalf("multiclass/ablation output incomplete:\n%s", s)
	}
}

func TestPrintCiphers(t *testing.T) {
	buf := captureOut(t)
	if err := printCiphers(tinyScale(), 1); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"speck", "simon", "simon-rk", "simeck", "simeck-rk", "chaskey"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ciphers output missing %q:\n%s", want, s)
		}
	}
}

// tinyScale keeps printer tests fast: the experiments themselves are
// validated at realistic scales in internal/experiments.
func tinyScale() experiments.Scale {
	return experiments.Scale{TrainPerClass: 256, ValPerClass: 256, Epochs: 1, Hidden: 16}
}
