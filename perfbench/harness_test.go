package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		pct, value float64
		beyond     int
	}{
		{n: 5000, pct: 99, value: 4950, beyond: 50}, // capped at p99
		{n: 1000, pct: 99, value: 990, beyond: 10},  // p99 has exactly 10 beyond
		{n: 100, pct: 90, value: 90, beyond: 10},    // p99 would leave 1 beyond
		{n: 40, pct: 75, value: 30, beyond: 10},
		{n: 15, pct: 50, value: 8, beyond: 7}, // never below the median
		{n: 14, pct: 50, value: 7.5, beyond: 7},
	} {
		got := tail(ascending(tc.n))
		if got.Pct != tc.pct || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%v = %v with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
		if tc.n >= 2*tailBeyond && got.Beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, got.Beyond)
		}
	}
	if got := tail(nil); got.N != 0 {
		t.Errorf("empty: %+v", got)
	}
}

func TestWindowedTail(t *testing.T) {
	// Short runs get the tail of the whole run, whatever the order.
	short := ascending(1999)
	short[0], short[1998] = short[1998], short[0]
	if got, want := windowedTail(short), tail(ascending(1999)); got != want {
		t.Errorf("short run: got %+v, want %+v", got, want)
	}
	// Ten windows at 1 ms with every 64th operation at 5 ms: 15 or 16
	// per window lie beyond p99, so every window's tail is 5 ms.
	seq := make([]float64, 10*tailWindow)
	for i := range seq {
		seq[i] = 1
		if i%64 == 63 {
			seq[i] = 5
		}
	}
	if got := windowedTail(seq); got.Value != 5 || got.Windows != 10 || got.N != tailWindow || got.Pct != 99 || got.Beyond != tailBeyond {
		t.Errorf("a cost every window pays must show: %+v", got)
	}
	// A stall confined to one window does not move the median of windows.
	for i := range seq {
		seq[i] = 1
	}
	for i := 3 * tailWindow; i < 3*tailWindow+200; i++ {
		seq[i] = 60
	}
	if got := windowedTail(seq); got.Value != 1 {
		t.Errorf("one stalled window moved the tail: %+v", got)
	}
	if got := tail(sortedCopy(seq)); got.Value != 60 {
		t.Errorf("the unwindowed tail sees the stall: %+v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{ascending(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 0.25, 8, 1, 1, 2, 16}, [3]float64{0.5, 1, 8}},
	} {
		got, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
	sp, err := spread(ascending(10))
	if err != nil || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", sp, err)
	}
}

func TestTallyCountsFailuresConcurrently(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var err error
				if i%10 == 0 {
					err = fmt.Errorf("op %d/%d wrong", w, i)
				}
				if got := tl.record(err); got != err {
					t.Errorf("record returned %v, want %v", got, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 400 || f != 40 {
		t.Fatalf("attempted %d failed %d, want 400 and 40", a, f)
	}
	if r := tl.ratio(); r != 0.1 {
		t.Errorf("ratio %v, want 0.1", r)
	}
	if len(tl.reasons) != keepReasons {
		t.Errorf("kept %d reasons, want %d", len(tl.reasons), keepReasons)
	}
	var empty tally
	if empty.ratio() != 0 {
		t.Error("empty tally ratio must be 0")
	}
}

func TestLowCoverageCountsAsFailure(t *testing.T) {
	var tl tally
	for _, share := range []float64{0.95, 0.9, 0.89, math.NaN()} {
		tl.record(checkCoverage(share))
	}
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 4 || f != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2: coverage below %v (or NaN) must fail", a, f, minCoverage)
	}
}

func TestLoopCountsFailedOperations(t *testing.T) {
	var tl tally
	res, err := loop{Clients: 1}.run(20*time.Millisecond, &tl, func(_, i int) error {
		if i%2 == 1 {
			return errors.New("wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a, f := int(tl.attempted.Load()), int(tl.failed.Load())
	if a == 0 || a != len(res.Lat) || a != len(res.Seq) || f != a/2 || res.OK != a-f {
		t.Fatalf("attempted %d failed %d ok %d samples %d", a, f, res.OK, len(res.Lat))
	}
	// Failed operations sort last as +Inf: they miss any latency limit.
	if !sort.Float64sAreSorted(res.Lat) || !math.IsInf(res.Lat[len(res.Lat)-1], 1) {
		t.Errorf("failed operations must be +Inf latencies: %v", res.Lat)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	var tl tally
	// One client at 1000/s with 5 ms operations: each operation is due
	// before the previous one ends, so latency grows with the backlog.
	res, err := loop{Clients: 1, Rate: 1000}.run(30*time.Millisecond, &tl, func(_, _ int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Lat); n < 2 || res.Lat[n-1] < res.Lat[0]+5 || len(res.Late) != n {
		t.Errorf("open-loop latencies do not include queueing: %v (late %v)", res.Lat, res.Late)
	}
	// The backlog grows with every operation, so in start order the
	// latencies rise.
	if !sort.Float64sAreSorted(res.Seq) || len(res.Seq) != len(res.Lat) {
		t.Errorf("Seq is not in start order: %v", res.Seq)
	}
}

func TestLoadWiderThanMachineRefused(t *testing.T) {
	if err := checkLoad(runtime.NumCPU() + 1); err == nil {
		t.Error("more clients than CPUs must be refused")
	}
	if err := checkLoad(0); err == nil {
		t.Error("zero clients must be refused")
	}
	var tl tally
	if _, err := (loop{Clients: runtime.NumCPU() + 1}).run(time.Millisecond, &tl, func(int, int) error { return nil }); err == nil {
		t.Error("loop wider than the machine must not start")
	}
	if err := checkLoad(runtime.NumCPU()); err != nil {
		t.Error(err)
	}
}

func TestNegativeLayerDifferenceIsFlagged(t *testing.T) {
	diffs, err := diffLevels([]level{{"http", 3}, {"handler", 1}, {"submit", 1.5}, {"forward", 0.5}},
		[]string{"transport", "codec", "queue"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -0.5, 1}
	for i, d := range diffs {
		if d.MS != want[i] || d.Negative() != (want[i] < 0) {
			t.Errorf("%s = %v (negative %v), want %v", d.Name, d.MS, d.Negative(), want[i])
		}
	}
	if d := diffs[1]; d.Outer != "handler" || d.Inner != "submit" || d.OuterMS != 1 || d.InnerMS != 1.5 {
		t.Errorf("negative difference lost its operands: %+v", d)
	}
	if _, err := diffLevels([]level{{"a", 1}}, []string{"x"}); err == nil {
		t.Error("mismatched names must be an error")
	}
}

func TestMachineMismatchRefused(t *testing.T) {
	a := thisMachine()
	b := a
	b.Commit = "other"
	if err := a.sameBox(b); err != nil {
		t.Errorf("commits may differ: %v", err)
	}
	for name, mut := range map[string]func(*machine){
		"numcpu":     func(m *machine) { m.NumCPU++ },
		"gomaxprocs": func(m *machine) { m.GOMAXPROCS++ },
		"cpu_model":  func(m *machine) { m.CPUModel += "x" },
		"avx2":       func(m *machine) { m.AVX2 = !m.AVX2 },
		"go_version": func(m *machine) { m.GoVersion += "x" },
	} {
		c := a
		mut(&c)
		if err := a.sameBox(c); !errors.Is(err, errMachineMismatch) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s differs: got %v", name, err)
		}
	}

	dir := t.TempDir()
	write := func(name string, m machine, v float64) string {
		mb, _ := json.Marshal(map[string]machine{"machine": m})
		rb, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"latency_p50_ms": {v, "ms"}}})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(fmt.Sprintf("%s\n%s\n%s\n%s\n", mb, rb, mb, rb)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var sb strings.Builder
	if err := compare(&sb, []string{write("a", a, 1), write("b", b, 2)}); err != nil {
		t.Fatalf("same box: %v", err)
	}
	if !strings.Contains(sb.String(), "+100.00%") {
		t.Errorf("comparison output lacks the median change:\n%s", sb.String())
	}
	other := a
	other.NumCPU++
	if err := compare(&sb, []string{write("c", a, 1), write("d", other, 1)}); !errors.Is(err, errMachineMismatch) {
		t.Errorf("different boxes: got %v, want a machine mismatch", err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's names and units in
// step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		kind      string
		spec, got []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if fmt.Sprint(c.spec) != fmt.Sprint(c.got) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nprogram prints:\n%v", c.kind, c.spec, c.got)
		}
	}
}
