package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/nn
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFit/workers=1-8         	      20	  57157982 ns/op	    8288 B/op	       5 allocs/op
BenchmarkFit/workers=4-8         	      20	  59389637 ns/op	    8520 B/op	      12 allocs/op
BenchmarkMatMul-8                	     100	    123456 ns/op
PASS
ok  	repro/internal/nn	2.684s
`

func TestParseBench(t *testing.T) {
	bs, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(bs))
	}
	b := bs[0]
	if b.Name != "BenchmarkFit/workers=1-8" || b.Iterations != 20 ||
		b.NsPerOp != 57157982 || b.BytesPerOp != 8288 || b.AllocsPerOp != 5 {
		t.Fatalf("first benchmark parsed as %+v", b)
	}
	if bs[2].Name != "BenchmarkMatMul-8" || bs[2].NsPerOp != 123456 || bs[2].AllocsPerOp != 0 {
		t.Fatalf("benchmark without -benchmem parsed as %+v", bs[2])
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	err := writeSnapshot(strings.NewReader("PASS\nok\n"), filepath.Join(dir, "BENCH_1.json"), "")
	if err == nil {
		t.Fatal("expected an error for input without benchmark lines")
	}
}

func TestSnapshotAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "BENCH_20260101.json")
	newPath := filepath.Join(dir, "BENCH_20260102.json")
	if err := writeSnapshot(strings.NewReader(sample), oldPath, ""); err != nil {
		t.Fatal(err)
	}
	faster := strings.ReplaceAll(sample, "57157982", "28578991")
	faster = strings.ReplaceAll(faster, "BenchmarkMatMul-8", "BenchmarkColSums-8")
	if err := writeSnapshot(strings.NewReader(faster), newPath, ""); err != nil {
		t.Fatal(err)
	}

	snap, err := readSnapshot(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Date != "20260101" {
		t.Fatalf("snapshot date %q, want 20260101", snap.Date)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("snapshot kept %d benchmarks, want 3", len(snap.Benchmarks))
	}

	var sb strings.Builder
	if err := compareFiles(&sb, oldPath, newPath, gateConfig{maxAllocRegress: -1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"BenchmarkFit/workers=1-8", "-50.0%", "(new)", "(removed)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}

	// The regression gate: comparing in the other direction, the same
	// -50% improvement reads as a +100% regression, so a 50% threshold
	// must fail and name the offending benchmark, while a generous one
	// must pass. The (new)/(removed) rows never trip the gate.
	err = compareFiles(&sb, newPath, oldPath, gateConfig{maxRegress: 50, maxAllocRegress: -1})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFit/workers=1-8") {
		t.Fatalf("gate at 50%% should fail naming the regressed benchmark, got %v", err)
	}
	if err := compareFiles(&sb, newPath, oldPath, gateConfig{maxRegress: 150, maxAllocRegress: -1}); err != nil {
		t.Fatalf("gate at 150%% should pass, got %v", err)
	}
}

// TestAllocGate: the allocation gate fails on any allocs/op growth at
// threshold 0, treats growth from zero as infinite, ignores
// improvements, and extends to B/op only with gateBytes.
func TestAllocGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "BENCH_20260101.json")
	newPath := filepath.Join(dir, "BENCH_20260102.json")
	if err := writeSnapshot(strings.NewReader(sample), oldPath, ""); err != nil {
		t.Fatal(err)
	}
	// workers=1: allocs 5 → 6; MatMul: B/op 0 → appears (no -benchmem
	// fields on the old line means 0).
	leaky := strings.ReplaceAll(sample, "       5 allocs/op", "       6 allocs/op")
	leaky = strings.ReplaceAll(leaky, "    123456 ns/op", "    123456 ns/op	      32 B/op	       0 allocs/op")
	if err := writeSnapshot(strings.NewReader(leaky), newPath, ""); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := compareFiles(&sb, oldPath, newPath, gateConfig{maxAllocRegress: 0})
	if err == nil || !strings.Contains(err.Error(), "allocs/op 5→6") {
		t.Fatalf("alloc gate should fail naming workers=1, got %v", err)
	}
	if strings.Contains(err.Error(), "B/op") {
		t.Fatalf("B/op gated without gateBytes: %v", err)
	}
	// 20% headroom tolerates the 5→6 alloc, but gateBytes catches the
	// 0→32 B/op jump as infinite growth.
	if err := compareFiles(&sb, oldPath, newPath, gateConfig{maxAllocRegress: 20}); err != nil {
		t.Fatalf("alloc gate at 20%% should tolerate 5→6, got %v", err)
	}
	err = compareFiles(&sb, oldPath, newPath, gateConfig{maxAllocRegress: 20, gateBytes: true})
	if err == nil || !strings.Contains(err.Error(), "B/op 0→32") {
		t.Fatalf("gateBytes should fail on 0→32 B/op, got %v", err)
	}
	// The reverse direction only shrinks allocations, which never gates.
	if err := compareFiles(&sb, newPath, oldPath, gateConfig{maxAllocRegress: 0}); err != nil {
		t.Fatalf("improvement direction should pass the alloc gate, got %v", err)
	}
}

// TestAggregateMin: -count=N repeats fold to the min ns/op and the max
// B/op and allocs/op.
func TestAggregateMin(t *testing.T) {
	repeated := sample +
		"BenchmarkFit/workers=1-8         	      22	  51000000 ns/op	    9000 B/op	       4 allocs/op\n" +
		"BenchmarkFit/workers=1-8         	      21	  59000000 ns/op	    8000 B/op	       7 allocs/op\n"
	bs, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	agg := aggregateMin(bs)
	if len(agg) != 3 {
		t.Fatalf("aggregated to %d benchmarks, want 3", len(agg))
	}
	b := agg[0]
	if b.Name != "BenchmarkFit/workers=1-8" || b.NsPerOp != 51000000 || b.Iterations != 22 ||
		b.BytesPerOp != 9000 || b.AllocsPerOp != 7 {
		t.Fatalf("aggregated benchmark %+v", b)
	}
}

func TestDateFromPath(t *testing.T) {
	for path, want := range map[string]string{
		"BENCH_20260805.json":      "20260805",
		"some/dir/BENCH_2026.json": "2026",
		"odd.json":                 "odd",
	} {
		if got := dateFromPath(path); got != want {
			t.Fatalf("dateFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestSnapshotRecordsMachine: a snapshot records the machine next to
// gomaxprocs; -compare warns, on one line naming the differing fields,
// when two snapshots' machines differ, and snapshots written before
// the machine fields existed still load and compare.
func TestSnapshotRecordsMachine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_20260101.json")
	if err := writeSnapshot(strings.NewReader(sample), path, ""); err != nil {
		t.Fatal(err)
	}
	snap, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumCPU != runtime.NumCPU() || snap.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" ||
		snap.AVX2 == nil || snap.GoVersion != runtime.Version() {
		t.Fatalf("machine fields not recorded: %+v", snap)
	}

	// Same machine: no warning.
	var sb strings.Builder
	if err := compareFiles(&sb, path, path, gateConfig{maxAllocRegress: -1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "warning") {
		t.Fatalf("same-machine compare warned:\n%s", sb.String())
	}

	// Another CPU model and core count: one warning line naming both.
	other := snap
	other.NumCPU = snap.NumCPU + 1
	other.CPU = "AMD EPYC 7B13"
	otherPath := filepath.Join(dir, "BENCH_20260102.json")
	writeJSON(t, otherPath, other)
	sb.Reset()
	if err := compareFiles(&sb, path, otherPath, gateConfig{maxAllocRegress: -1}); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "warning") {
			warnings = append(warnings, line)
		}
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "num_cpu") ||
		!strings.Contains(warnings[0], "cpu Intel") || strings.Contains(warnings[0], "go_version") {
		t.Fatalf("want one warning naming num_cpu and cpu, got %q", warnings)
	}

	// A snapshot without the machine fields loads; only the fields both
	// sides record are compared.
	legacy := filepath.Join(dir, "BENCH_20250101.json")
	writeJSON(t, legacy, map[string]any{
		"date": "20250101", "goos": snap.GOOS, "goarch": snap.GOARCH, "gomaxprocs": snap.GOMAXPROCS,
		"benchmarks": []Benchmark{{Name: "BenchmarkFit/workers=1-8", Iterations: 1, NsPerOp: 1}},
	})
	sb.Reset()
	if err := compareFiles(&sb, legacy, path, gateConfig{maxAllocRegress: -1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "warning") {
		t.Fatalf("legacy snapshot without machine fields warned:\n%s", sb.String())
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
