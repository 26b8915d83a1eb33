// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the library, the serving tier, the
// cluster router and the ledger, checks every output against an
// offline oracle, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload table2-cell --seed 1 --seconds 10 --trace 0
//
// WORKLOADS.md describes the workloads and metrics. --trace 0 prints
// the end-to-end metrics; --trace 1 spends half the time on the
// untraced workload and half on a layer-by-layer decomposition, and
// prints the per-layer metrics. Standard output is a machine line
// followed by the result line; diagnostics go to standard error.
//
//	perfbench --compare old.txt new.txt
//
// summarizes saved outputs of repeated runs side by side, and refuses
// when they come from different machines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times each run sets the workload up; the
// median is reported as setup_s and the last set-up is measured.
const setupRepeats = 5

// defaultScratch is where each run's scratch files go (removed when the
// run ends) unless --scratch names another directory; run.sh passes its
// build directory.
const defaultScratch = ".bench_build"

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics printed with --trace 0, on every workload.
// An operation is a Table 2 cell, an online game or a request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics printed with --trace 1, on every workload. A
// layer the workload does not exercise reports 0 work.
var perLayer = []metricDef{
	{"core.generate_s", "s"},
	{"core.generate_rows_per_s", "1/s"},
	{"nn.fit_s", "s"},
	{"nn.epoch_s", "s"},
	{"nn.fit_prep_s", "s"},
	{"nn.fit_gflop", "GFLOP.computed"},
	{"nn.fit_gflops", "GFLOP/s"},
	{"nn.validate_s", "s"},
	{"core.query_ns", "ns"},
	{"core.query_alloc_b", "B"},
	{"nn.predict_ns", "ns"},
	{"stats.decide_us", "us"},
	{"stats.correct_ratio", "ratio"},
	{"net.transport_ms", "ms"},
	{"serve.codec_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"nn.forward_ms", "ms"},
	{"serve.batch_rows_mean", "count"},
	{"serve.body_kb", "KiB"},
	{"serve.shed_total", "count"},
	{"serve.timeout_total", "count"},
	{"cluster.hop_ms", "ms"},
	{"cluster.retries_total", "count"},
	{"cluster.routed_total", "count"},
	{"ledger.inpath_ms", "ms"},
	{"ledger.append_us", "us"},
	{"ledger.seal_ms", "ms"},
	{"ledger.bytes_per_record", "B"},
	{"ledger.heap_kb_per_1k_records", "KiB"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
	{"trace.negative_diffs", "count"},
	{"fail_ratio", "ratio"},
}

// runCtx is one invocation's settings.
type runCtx struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Dir     string // scratch directory for model and ledger files
}

// phase is the measured duration of the untraced workload: all of it,
// or half when tracing.
func (rc *runCtx) phase() time.Duration {
	d := time.Duration(rc.Seconds * float64(time.Second))
	if rc.Trace {
		d /= 2
	}
	return d
}

// report is what a workload measured.
type report struct {
	Setup  []float64 // seconds per set-up repetition
	Loop   loopResult
	Use    usage
	Tally  *tally
	Layers map[string]float64 // traced runs only
}

type workload func(rc *runCtx) (*report, error)

var workloads = map[string]workload{
	"table2-cell":       runTable2Cell,
	"online-games":      runOnlineGames,
	"serve-classify":    runServeClassify,
	"serve-distinguish": runServeDistinguish,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    string
		seed    uint64
		seconds float64
		trace   int
		scratch string
		cmp     bool
	)
	flag.StringVar(&name, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&seconds, "seconds", 10, "measured duration")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	flag.StringVar(&scratch, "scratch", defaultScratch, "directory for each run's model, ledger and anchor files")
	flag.BoolVar(&cmp, "compare", false, "summarize the saved run outputs named as arguments instead of running")
	flag.Parse()

	if cmp {
		if err := compare(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[name]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := run(name, w, scratch, &runCtx{Seed: seed, Seconds: seconds, Trace: trace == 1}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w workload, scratch string, rc *runCtx) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc.Dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}
	rep, err := w(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res, err := assemble(rep, rc.Trace)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, r := range rep.Tally.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", r)
	}
	m, err := json.Marshal(map[string]machine{"machine": thisMachine()})
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", m, out)
	return nil
}

// assemble turns a report into the result line.
func assemble(rep *report, trace bool) (result, error) {
	res := result{
		Attempted: rep.Tally.attempted.Load(),
		Failed:    rep.Tally.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		return res, errors.New("no operation completed in the measured time")
	}
	defs, vals := endToEnd, endToEndValues(rep)
	if trace {
		defs, vals = perLayer, rep.Layers
		if vals == nil {
			vals = map[string]float64{}
		}
		vals["fail_ratio"] = rep.Tally.ratio()
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) {
			return res, fmt.Errorf("metric %s is NaN", d.Name)
		}
		if math.IsInf(v, 0) { // failed operations in a latency tail
			v = math.Copysign(math.MaxFloat64, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func endToEndValues(rep *report) map[string]float64 {
	ops := float64(len(rep.Loop.Lat))
	tl := windowedTail(rep.Loop.Seq)
	fmt.Fprintf(os.Stderr, "perfbench: latency tail is p%.2f over %d samples (%d beyond)", tl.Pct, tl.N, tl.Beyond)
	if tl.Windows > 1 {
		fmt.Fprintf(os.Stderr, " per window, median of %d windows", tl.Windows)
	}
	fmt.Fprintln(os.Stderr)
	return map[string]float64{
		"setup_s":         medianOf(rep.Setup),
		"latency_p50_ms":  median(rep.Loop.Lat),
		"latency_p99_ms":  tl.Value,
		"ops_per_s":       float64(rep.Loop.OK) / rep.Loop.Wall.Seconds(),
		"ok_ratio":        1 - rep.Tally.ratio(),
		"cpu_ms_per_op":   ms(rep.Use.CPU) / ops,
		"alloc_kb_per_op": float64(rep.Use.AllocBytes) / 1024 / ops,
		"peak_heap_mb":    float64(rep.Use.PeakHeap) / (1 << 20),
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repeatSetup builds the workload setupRepeats times, timing each, tears
// down all but the last, and returns the last with the timings.
func repeatSetup[T any](build func(i int) (T, error), teardown func(T)) (T, []float64, error) {
	var (
		cur   T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(cur)
		}
		start := time.Now()
		v, err := build(i)
		if err != nil {
			var zero T
			return zero, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		cur = v
	}
	return cur, times, nil
}
