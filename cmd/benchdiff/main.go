// Command benchdiff snapshots `go test -bench` output as a JSON file
// and compares two snapshots, printing per-benchmark deltas. It is the
// persistence half of `make bench`: scripts/bench.sh pipes benchmark
// output through `benchdiff -snapshot BENCH_<date>.json` and then
// renders the drift against the previous committed snapshot with
// `benchdiff -compare old.json new.json`. With -max-regress <pct> the
// comparison becomes a gate: any benchmark whose ns/op regressed past
// the threshold fails the run, which is how scripts/check.sh keeps the
// committed performance trajectory monotone. Each snapshot records the
// machine it ran on (GOMAXPROCS, NumCPU, the CPU model from go test's
// `cpu:` line, AVX2, the Go version), and -compare prints a one-line
// warning when two snapshots' machines differ. Stdlib only.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cpu"
)

// Benchmark is one measured benchmark result.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Snapshot is the persisted BENCH_<date>.json document. NumCPU, CPU,
// AVX2 and GoVersion describe the machine next to GOMAXPROCS; snapshots
// written before they were recorded load with them unset.
type Snapshot struct {
	Date       string      `json:"date"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	CPU        string      `json:"cpu,omitempty"`  // the `cpu:` line go test prints
	AVX2       *bool       `json:"avx2,omitempty"` // cpu.HasAVX2 on the snapshotting host
	GoVersion  string      `json:"go_version,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		snapshot        = flag.String("snapshot", "", "parse `go test -bench` output on stdin and write this JSON snapshot")
		date            = flag.String("date", "", "date stamp recorded in the snapshot (default: derived from the -snapshot filename)")
		compare         = flag.Bool("compare", false, "compare two snapshot files: benchdiff -compare OLD.json NEW.json")
		maxRegress      = flag.Float64("max-regress", 0, "with -compare: exit nonzero if any benchmark's ns/op regressed more than this percentage (0 disables the gate)")
		maxAllocRegress = flag.Float64("max-alloc-regress", -1, "with -compare: exit nonzero if any benchmark's allocs/op grew more than this percentage (0 = no growth allowed, negative disables the gate)")
		gateBytes       = flag.Bool("gate-bytes", false, "with -compare: apply -max-alloc-regress to B/op as well")
		allocExempt     = flag.String("alloc-exempt", "", "with -compare: regexp of benchmark names excluded from the allocation gate (ns/op gate still applies)")
	)
	flag.Parse()
	switch {
	case *snapshot != "":
		if err := writeSnapshot(os.Stdin, *snapshot, *date); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchdiff: -compare needs exactly two snapshot files")
			os.Exit(2)
		}
		gates := gateConfig{maxRegress: *maxRegress, maxAllocRegress: *maxAllocRegress, gateBytes: *gateBytes}
		if *allocExempt != "" {
			re, err := regexp.Compile(*allocExempt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchdiff: -alloc-exempt:", err)
				os.Exit(2)
			}
			gates.allocExempt = re
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), gates); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// parseBench extracts benchmark lines from `go test -bench -benchmem`
// output. A line looks like
//
//	BenchmarkFit/workers=1-8  20  57157982 ns/op  8288 B/op  5 allocs/op
//
// Lines that are not benchmark results (pkg headers, PASS, ok) are
// ignored.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: f[0], Iterations: iters}
		seen := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp = v
				seen = true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if seen {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// aggregateMin folds repeated runs of the same benchmark (go test
// -count=N emits one line per run) into a single entry: the minimum
// ns/op — the least-noise estimate on a shared machine — paired with
// the maximum B/op and allocs/op, so the allocation gates judge the
// worst observed run. Order of first appearance is preserved.
func aggregateMin(benches []Benchmark) []Benchmark {
	idx := make(map[string]int, len(benches))
	out := benches[:0]
	for _, b := range benches {
		i, ok := idx[b.Name]
		if !ok {
			idx[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		if b.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = b.NsPerOp
			out[i].Iterations = b.Iterations
		}
		if b.BytesPerOp > out[i].BytesPerOp {
			out[i].BytesPerOp = b.BytesPerOp
		}
		if b.AllocsPerOp > out[i].AllocsPerOp {
			out[i].AllocsPerOp = b.AllocsPerOp
		}
	}
	return out
}

// cpuModel returns the CPU model from the first `cpu:` line of `go
// test -bench` output, or "" when there is none.
func cpuModel(out []byte) string {
	for _, line := range strings.Split(string(out), "\n") {
		if m, ok := strings.CutPrefix(line, "cpu: "); ok {
			return strings.TrimSpace(m)
		}
	}
	return ""
}

// writeSnapshot parses stdin and writes the snapshot JSON, folding
// -count=N repeats via aggregateMin and recording the machine.
func writeSnapshot(r io.Reader, path, date string) error {
	out, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	benches, err := parseBench(bytes.NewReader(out))
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	benches = aggregateMin(benches)
	if date == "" {
		date = dateFromPath(path)
	}
	avx2 := cpu.HasAVX2()
	snap := Snapshot{
		Date:       date,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(out),
		AVX2:       &avx2,
		GoVersion:  runtime.Version(),
		Benchmarks: benches,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// dateFromPath recovers the <date> stamp from a BENCH_<date>.json
// filename; unknown shapes return the bare filename.
func dateFromPath(path string) string {
	base := strings.TrimSuffix(path[strings.LastIndexByte(path, '/')+1:], ".json")
	return strings.TrimPrefix(base, "BENCH_")
}

// gateConfig selects which compare gates are armed. maxRegress > 0
// gates ns/op growth; maxAllocRegress ≥ 0 gates allocs/op growth (0
// means any growth fails — allocation counts of the steady-state
// kernels are deterministic, so the natural gate is exact); gateBytes
// extends the allocation gate to B/op. allocExempt names benchmarks
// whose allocation counts are *not* deterministic — the training
// engine's, where goroutine stack growth and GC-coupled lazy state
// land in allocs/op differently from run to run — and which therefore
// only take the ns/op gate.
type gateConfig struct {
	maxRegress      float64
	maxAllocRegress float64
	gateBytes       bool
	allocExempt     *regexp.Regexp
}

// exceeds reports whether a metric moving old → new violates a
// growth gate of limit percent. A metric appearing from zero is
// infinite growth and always violates an armed gate.
func exceeds(old, new, limit float64) bool {
	if new <= old {
		return false
	}
	if old == 0 {
		return true
	}
	return pctDelta(old, new) > limit
}

// compareFiles renders the per-benchmark drift from old to new and
// applies the armed gates, collecting violations into an error after
// the full table prints. Benchmarks present in only one snapshot never
// trip a gate.
func compareFiles(w io.Writer, oldPath, newPath string, gates gateConfig) error {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "benchdiff: %s (%s) → %s (%s)\n", oldPath, oldSnap.Date, newPath, newSnap.Date)
	if diff := machineDiff(oldSnap, newSnap); len(diff) > 0 {
		fmt.Fprintf(w, "benchdiff: warning: the snapshots come from different machines: %s\n", strings.Join(diff, ", "))
	}
	prev := map[string]Benchmark{}
	for _, b := range oldSnap.Benchmarks {
		prev[b.Name] = b
	}
	var regressed []string
	fmt.Fprintf(w, "%-52s  %14s  %14s  %8s  %12s\n", "benchmark", "old ns/op", "new ns/op", "Δns/op", "allocs/op")
	for _, nb := range newSnap.Benchmarks {
		ob, ok := prev[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-52s  %14s  %14.0f  %8s  %9.0f (new)\n", nb.Name, "-", nb.NsPerOp, "-", nb.AllocsPerOp)
			continue
		}
		delete(prev, nb.Name)
		delta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		fmt.Fprintf(w, "%-52s  %14.0f  %14.0f  %+7.1f%%  %5.0f→%.0f\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, delta, ob.AllocsPerOp, nb.AllocsPerOp)
		if gates.maxRegress > 0 && delta > gates.maxRegress {
			regressed = append(regressed, fmt.Sprintf("%s (ns/op +%.1f%%)", nb.Name, delta))
		}
		if gates.maxAllocRegress >= 0 && (gates.allocExempt == nil || !gates.allocExempt.MatchString(nb.Name)) {
			if exceeds(ob.AllocsPerOp, nb.AllocsPerOp, gates.maxAllocRegress) {
				regressed = append(regressed, fmt.Sprintf("%s (allocs/op %.0f→%.0f)", nb.Name, ob.AllocsPerOp, nb.AllocsPerOp))
			}
			if gates.gateBytes && exceeds(ob.BytesPerOp, nb.BytesPerOp, gates.maxAllocRegress) {
				regressed = append(regressed, fmt.Sprintf("%s (B/op %.0f→%.0f)", nb.Name, ob.BytesPerOp, nb.BytesPerOp))
			}
		}
	}
	for name := range prev {
		fmt.Fprintf(w, "%-52s  (removed)\n", name)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regressed past the gates: %s", strings.Join(regressed, ", "))
	}
	return nil
}

// machineDiff names the machine fields two snapshots both record with
// different values, as "field old → new".
func machineDiff(a, b Snapshot) []string {
	var diff []string
	add := func(field string, x, y any, recorded bool) {
		if recorded && x != y {
			diff = append(diff, fmt.Sprintf("%s %v → %v", field, x, y))
		}
	}
	add("goos", a.GOOS, b.GOOS, true)
	add("goarch", a.GOARCH, b.GOARCH, true)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS, true)
	add("num_cpu", a.NumCPU, b.NumCPU, a.NumCPU != 0 && b.NumCPU != 0)
	add("cpu", a.CPU, b.CPU, a.CPU != "" && b.CPU != "")
	if a.AVX2 != nil && b.AVX2 != nil {
		add("avx2", *a.AVX2, *b.AVX2, true)
	}
	add("go_version", a.GoVersion, b.GoVersion, a.GoVersion != "" && b.GoVersion != "")
	return diff
}

func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func readSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
