package main

// Sample statistics, failure counting, layer differences, resource
// meters and the machine block shared by every workload.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cpu"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile, and tailMax caps it: a tail is reported at the highest
// percentile up to tailMax that still has tailBeyond samples above it.
const (
	tailBeyond = 10
	tailMax    = 0.99
)

// tailStat is a tail percentile with the sample count behind it.
type tailStat struct {
	Value   float64
	Pct     float64 // percentile in (0, 100]
	N       int     // samples (per window, for a windowed tail)
	Beyond  int     // samples strictly above the reported rank
	Windows int     // windows the median was taken over; 1 for one tail
}

// tail returns the highest percentile, at most tailMax, with at least
// tailBeyond samples beyond it (nearest-rank). A tail is never reported
// below the median: with fewer than 2·tailBeyond samples it is the
// median, and Beyond shows the shortfall. sorted must be ascending.
func tail(sorted []float64) tailStat {
	n := len(sorted)
	if n == 0 {
		return tailStat{}
	}
	q := math.Min(tailMax, float64(n-tailBeyond)/float64(n))
	if q <= 0.5 {
		return tailStat{Value: median(sorted), Pct: 50, N: n, Beyond: n / 2, Windows: 1}
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if n-1-idx < tailBeyond { // guard float rounding in q·n
		idx = n - 1 - tailBeyond
	}
	return tailStat{Value: sorted[idx], Pct: 100 * q, N: n, Beyond: n - 1 - idx, Windows: 1}
}

// tailWindow is the smallest window, in operations, whose tailMax
// percentile has tailBeyond samples beyond it.
const tailWindow = 1000

// windowedTail is the median, over consecutive windows of at least
// tailWindow operations in start order, of each window's tail. A single
// stall — a slow fsync on a shared disk, a burst from another tenant —
// lifts the tail of the window it falls in and no other, so the median
// over windows is steady from run to run, while a cost that every
// window pays, such as a seal every 64 ledger records, still shows.
// Runs of fewer than 2·tailWindow operations get the tail of the whole
// run.
func windowedTail(seq []float64) tailStat {
	n := len(seq)
	k := n / tailWindow
	if k < 2 {
		return tail(sortedCopy(seq))
	}
	vals := make([]float64, k)
	var ts tailStat
	for w := range vals {
		ts = tail(sortedCopy(seq[w*n/k : (w+1)*n/k]))
		vals[w] = ts.Value
	}
	ts.Value, ts.Windows = medianOf(vals), k
	return ts
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// quartiles returns Q1, Q2, Q3 of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// the spreads this harness prints match an external check exactly.
// It needs at least two samples.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	ld := len(xs)
	if ld < 2 {
		return q, fmt.Errorf("quartiles need at least 2 samples, got %d", ld)
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q, nil
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q[1] == 0 {
		if q[2] == q[0] {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return (q[2] - q[0]) / math.Abs(q[1]), nil
}

// tally counts operations and failures; safe for concurrent use. A
// failure is anything the workload defines as a wrong or missing
// outcome; the first few reasons are kept for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	reasons []string
}

const keepReasons = 5

// record counts one attempted operation and, if err is non-nil, its
// failure. It returns err unchanged.
func (t *tally) record(err error) error {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		t.mu.Lock()
		if len(t.reasons) < keepReasons {
			t.reasons = append(t.reasons, err.Error())
		}
		t.mu.Unlock()
	}
	return err
}

// ratio is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) ratio() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.failed.Load()) / float64(a)
}

// level is one nested entry point of a layered measurement, with the
// median time of the same operation through it.
type level struct {
	Name string
	MS   float64
}

// layerDiff is the time between two adjacent levels: outer − inner.
type layerDiff struct {
	Name             string
	Outer, Inner     string
	OuterMS, InnerMS float64
	MS               float64
}

// Negative reports whether the inner level took longer than the outer
// one — the decomposition is then not additive, and the value is
// reported as measured and flagged, never clamped to zero.
func (d layerDiff) Negative() bool { return d.MS < 0 }

// diffLevels subtracts adjacent levels, outermost first: names[i] is
// the layer between levels[i] and levels[i+1].
func diffLevels(levels []level, names []string) ([]layerDiff, error) {
	if len(names) != len(levels)-1 {
		return nil, fmt.Errorf("%d levels need %d difference names, got %d", len(levels), len(levels)-1, len(names))
	}
	out := make([]layerDiff, len(names))
	for i, n := range names {
		o, in := levels[i], levels[i+1]
		out[i] = layerDiff{Name: n, Outer: o.Name, Inner: in.Name, OuterMS: o.MS, InnerMS: in.MS, MS: o.MS - in.MS}
	}
	return out, nil
}

// minCoverage is the share of a traced operation's wall time its timed
// layer calls must cover. A traced table2-cell or online-games operation
// below it counts as failed: its decomposition misses part of the work.
const minCoverage = 0.9

// checkCoverage returns an error when the covered share of an
// operation's wall time is below minCoverage.
func checkCoverage(share float64) error {
	if !(share >= minCoverage) {
		return fmt.Errorf("timed layer calls cover %.3f of the wall time, need %.2f", share, minCoverage)
	}
	return nil
}

// usage is what a meter saw over a timed phase.
type usage struct {
	CPU        time.Duration // user + sys of the whole process
	AllocBytes uint64        // heap bytes allocated
	PeakHeap   uint64        // median of per-window peak heap object bytes
}

// meter samples process CPU time, heap allocation and peak heap over a
// timed phase. The heap sampler polls runtime/metrics, which does not
// stop the world, every heapSampleEvery. Where a single peak depends on
// when the collector happened to run, the median of the peaks of
// heapWindow-long windows is steady from run to run.
type meter struct {
	cpu0   time.Duration
	alloc0 uint64
	stop   chan struct{}
	done   sync.WaitGroup
	peaks  []float64 // per complete window; owned by the sampler until done
	last   uint64    // peak of the trailing partial window
}

const (
	heapSampleEvery = 5 * time.Millisecond
	heapWindow      = 250 * time.Millisecond
)

func startMeter() *meter {
	m := &meter{stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		windowEnd := time.Now().Add(heapWindow)
		peak := heapObjects()
		for {
			select {
			case <-m.stop:
				m.last = max(peak, heapObjects())
				return
			case now := <-tick.C:
				peak = max(peak, heapObjects())
				if now.After(windowEnd) {
					m.peaks = append(m.peaks, float64(peak))
					windowEnd = now.Add(heapWindow)
					peak = 0
				}
			}
		}
	}()
	m.cpu0 = processCPU()
	m.alloc0 = heapAllocs()
	return m
}

// finish stops the sampler and returns the phase's usage.
func (m *meter) finish() usage {
	cpuT := processCPU() - m.cpu0
	alloc := heapAllocs() - m.alloc0
	close(m.stop)
	m.done.Wait()
	peak := uint64(medianOf(m.peaks))
	if len(m.peaks) == 0 {
		peak = m.last
	}
	return usage{CPU: cpuT, AllocBytes: alloc, PeakHeap: peak}
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func heapObjects() uint64 { return readMetric("/memory/classes/heap/objects:bytes") }
func heapAllocs() uint64  { return readMetric("/gc/heap/allocs:bytes") }

// processCPU is the process's user + system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// machine identifies the box and build a result came from. Results are
// comparable only when everything but Commit matches.
type machine struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		AVX2:       cpu.HasAVX2(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// errMachineMismatch marks results from different boxes or toolchains.
var errMachineMismatch = errors.New("machine blocks differ")

// sameBox returns an error naming the first field that differs. The
// commit is not compared: comparing two commits is the point.
func (m machine) sameBox(o machine) error {
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"numcpu", m.NumCPU, o.NumCPU},
		{"gomaxprocs", m.GOMAXPROCS, o.GOMAXPROCS},
		{"cpu_model", m.CPUModel, o.CPUModel},
		{"avx2", m.AVX2, o.AVX2},
		{"go_version", m.GoVersion, o.GoVersion},
	} {
		if f.a != f.b {
			return fmt.Errorf("%w: %s is %v vs %v", errMachineMismatch, f.name, f.a, f.b)
		}
	}
	return nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// checkLoad refuses a load generator wider than the machine: more
// client goroutines or connections than CPUs measures the scheduler's
// time slicing, not the system.
func checkLoad(n int) error {
	if n < 1 || n > runtime.NumCPU() {
		return fmt.Errorf("load of %d clients/connections refused: must be 1..NumCPU (%d)", n, runtime.NumCPU())
	}
	return nil
}
