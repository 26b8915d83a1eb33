package nn_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bits"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/testkit"
)

// synthData builds a small deterministic binary-feature classification
// set (label = OR of the first two bits, roughly balanced).
func synthData(r *prng.Rand, samples, cols int) (*nn.Matrix, []int) {
	rows := make([][]float64, samples)
	y := make([]int, samples)
	for i := range rows {
		row := make([]float64, cols)
		for j := range row {
			row[j] = float64(r.Intn(2))
		}
		rows[i] = row
		if row[0]+row[1] >= 1 {
			y[i] = 1
		}
	}
	return nn.FromRows(rows), y
}

// packRows packs the {0,1} float rows of x into a BitMatrix.
func packRows(x *nn.Matrix) *nn.BitMatrix {
	xb := &nn.BitMatrix{Rows: x.Rows, Cols: x.Cols}
	w := xb.Words()
	xb.Data = make([]uint64, x.Rows*w)
	for i := 0; i < x.Rows; i++ {
		bits.PackFloats(xb.Data[i*w:(i+1)*w], x.Row(i))
	}
	return xb
}

// paramBits snapshots every trained scalar as its exact bit pattern.
func paramBits(net *nn.Network) []uint64 {
	var bits []uint64
	for _, p := range net.Params() {
		for _, w := range p.W {
			bits = append(bits, math.Float64bits(w))
		}
	}
	return bits
}

// netFactory builds a network from a fixed seed, so repeated builds
// are identical.
type netFactory struct {
	name  string
	build func() *nn.Network
}

// fitFactories are the layer families whose training step allocates
// nothing.
var fitFactories = []netFactory{
	{"mlp-leaky", func() *nn.Network {
		r := prng.New(42)
		net, err := nn.MLP(12, []int{16, 8}, 2, nn.LeakyReLU, r)
		if err != nil {
			panic(err)
		}
		return net
	}},
	{"cnn", func() *nn.Network {
		r := prng.New(43)
		c := nn.NewConv1D(12, 1, 4, 3, r)
		net, err := nn.NewNetwork(
			c,
			nn.NewActivation(nn.ReLU, c.OutDim()),
			nn.NewDense(c.OutDim(), 2, r),
		)
		if err != nil {
			panic(err)
		}
		return net
	}},
}

// lstmFactories are the LSTM networks: Dense → LSTM → Dense, and
// Table 3's LSTM(ReturnSeq) → LSTM → Dense shape. An LSTM replica
// allocates its BPTT caches every step, so these stay out of
// TestFitShardedSteadyStateAllocs.
var lstmFactories = []netFactory{
	{"dense-lstm", func() *nn.Network {
		r := prng.New(45)
		net, err := nn.NewNetwork(nn.NewDense(12, 8, r), nn.NewLSTM(2, 4, 4, r), nn.NewDense(4, 2, r))
		if err != nil {
			panic(err)
		}
		return net
	}},
	{"lstm-stack", func() *nn.Network {
		r := prng.New(46)
		l1 := nn.NewLSTM(3, 4, 6, r)
		l1.ReturnSeq = true
		net, err := nn.NewNetwork(l1, nn.NewLSTM(3, 6, 5, r), nn.NewDense(5, 2, r))
		if err != nil {
			panic(err)
		}
		return net
	}},
}

// trainWith builds the factory's network and fits it with the given
// worker count on a dataset sized to exercise partial trailing batches
// (25 samples, batch 10) and empty canonical shards (5-row batches cut
// into 8 shards).
func trainWith(t *testing.T, build func() *nn.Network, workers int) (*nn.Network, *nn.History) {
	t.Helper()
	net := build()
	r := prng.New(1234)
	x, y := synthData(r, 25, 12)
	hist, err := net.Fit(x, y, nn.FitConfig{
		Epochs: 3, BatchSize: 10, Seed: 99, Workers: workers,
	})
	if err != nil {
		t.Fatalf("Fit(workers=%d): %v", workers, err)
	}
	return net, hist
}

// TestFitParallelByteIdentical is the engine's core regression: trained
// weights and per-epoch history must match serial training bit for bit
// at every worker count, for every layer family, the LSTM included.
func TestFitParallelByteIdentical(t *testing.T) {
	for _, nf := range slices.Concat(fitFactories, lstmFactories) {
		t.Run(nf.name, func(t *testing.T) {
			refNet, refHist := trainWith(t, nf.build, 1)
			ref := paramBits(refNet)
			for _, w := range []int{4, 7} {
				net, hist := trainWith(t, nf.build, w)
				got := paramBits(net)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("workers=%d: param scalar %d = %x, serial %x", w, i, got[i], ref[i])
					}
				}
				for e := range refHist.Loss {
					if math.Float64bits(hist.Loss[e]) != math.Float64bits(refHist.Loss[e]) ||
						math.Float64bits(hist.Acc[e]) != math.Float64bits(refHist.Acc[e]) {
						t.Fatalf("workers=%d: epoch %d history (%v, %v) != serial (%v, %v)",
							w, e, hist.Loss[e], hist.Acc[e], refHist.Loss[e], refHist.Acc[e])
					}
				}
			}
		})
	}
}

// TestFitWorkersZeroMeansGOMAXPROCS: the default worker count must also
// produce the canonical bytes.
func TestFitWorkersZeroMeansGOMAXPROCS(t *testing.T) {
	build := fitFactories[0].build
	refNet, _ := trainWith(t, build, 1)
	defNet, _ := trainWith(t, build, 0)
	ref, got := paramBits(refNet), paramBits(defNet)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("Workers=0 diverged from serial at scalar %d", i)
		}
	}
}

// TestReduceGradTreePermutationInvariant: the merged gradient bytes are
// a function of shard slot contents alone. Workers write their shards'
// accumulators concurrently in an arbitrary completion order; the
// fixed-order tree must reduce them to exactly the bytes of a serial
// fill-and-reduce.
func TestReduceGradTreePermutationInvariant(t *testing.T) {
	type shardSet struct {
		Vecs [][]float64 // [fitShards] one flat accumulator per shard
		Perm []int       // completion order of the shard writes
	}
	gen := testkit.Gen[shardSet]{
		Name: "shard gradient set",
		Generate: func(r *prng.Rand) shardSet {
			n := 1 + r.Intn(6)
			s := shardSet{Vecs: make([][]float64, nn.FitShards), Perm: r.Perm(nn.FitShards)}
			for v := range s.Vecs {
				vec := make([]float64, n)
				for i := range vec {
					vec[i] = r.NormFloat64()
				}
				s.Vecs[v] = vec
			}
			return s
		},
		Format: func(s shardSet) string {
			return fmt.Sprintf("perm=%v vecs=%v", s.Perm, s.Vecs)
		},
	}
	slots := func(s shardSet) [][][]float64 {
		g := make([][][]float64, nn.FitShards)
		for v := range g {
			g[v] = [][]float64{append([]float64(nil), s.Vecs[v]...)}
		}
		return g
	}
	testkit.Check(t, "gradient tree reduction is completion-order invariant", gen, func(s shardSet) error {
		ref := slots(s)
		nn.ReduceGradTree(ref)

		got := slots(s)
		var wg sync.WaitGroup
		for _, v := range s.Perm {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				copy(got[v][0], s.Vecs[v]) // concurrent slot write, shard-addressed
			}(v)
		}
		wg.Wait()
		nn.ReduceGradTree(got)
		for i := range ref[0][0] {
			if math.Float64bits(got[0][0][i]) != math.Float64bits(ref[0][0][i]) {
				return fmt.Errorf("element %d: %x != %x", i, math.Float64bits(got[0][0][i]), math.Float64bits(ref[0][0][i]))
			}
		}
		return nil
	})
}

// TestPredictorMatchesPredict: the scratch-reusing Predictor must agree
// with Network.Predict across layer families and chunk shapes,
// including the shrink-then-grow reslice path.
func TestPredictorMatchesPredict(t *testing.T) {
	r := prng.New(77)
	nets := map[string]*nn.Network{}

	c := nn.NewConv1D(12, 1, 4, 3, r)
	cnn, err := nn.NewNetwork(c, nn.NewActivation(nn.ReLU, c.OutDim()), nn.NewDense(c.OutDim(), 2, r))
	if err != nil {
		t.Fatal(err)
	}
	nets["cnn"] = cnn

	l := nn.NewLSTM(4, 3, 6, r)
	lstm, err := nn.NewNetwork(l, nn.NewDense(6, 2, r))
	if err != nil {
		t.Fatal(err)
	}
	nets["lstm"] = lstm

	x, y := synthData(prng.New(31), 40, 12)
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			// Train briefly so the weights are nontrivial.
			if _, err := net.Fit(x, y, nn.FitConfig{Epochs: 1, BatchSize: 10, Seed: 5, Workers: 2}); err != nil {
				t.Fatal(err)
			}
			p := net.NewPredictor()
			var buf []int
			for _, chunk := range [][2]int{{0, 24}, {24, 31}, {31, 40}, {0, 16}} {
				sub := nn.FromRows(rowsOf(x, chunk[0], chunk[1]))
				want := net.Predict(sub)
				buf = p.PredictInto(buf, sub)
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("chunk %v row %d: Predictor %d != Predict %d", chunk, i, buf[i], want[i])
					}
				}
				got := p.Predict(sub)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("chunk %v row %d: Predictor.Predict %d != Predict %d", chunk, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPredictorInPlaceActivations: a Predictor runs a top-level
// activation over the previous layer's scratch, and must still match
// Network.Predict from float and packed rows without touching the
// caller's matrix — also when layer 0 is an activation (its input is
// the caller's). The float rows are signed so every activation changes
// them.
func TestPredictorInPlaceActivations(t *testing.T) {
	r := prng.New(78)
	mlp, err := nn.MLP(12, []int{16, 8}, 2, nn.ReLU, r)
	if err != nil {
		t.Fatal(err)
	}
	actFirst, err := nn.NewNetwork(
		nn.NewActivation(nn.LeakyReLU, 12),
		nn.NewDense(12, 8, r),
		nn.NewActivation(nn.ReLU, 8),
		nn.NewDense(8, 2, r),
	)
	if err != nil {
		t.Fatal(err)
	}
	signed := nn.NewMatrix(40, 12)
	for i := range signed.Data {
		signed.Data[i] = r.NormFloat64()
	}
	bitRows, _ := synthData(prng.New(32), 40, 12)
	packed := packRows(bitRows)
	for name, net := range map[string]*nn.Network{"mlp": mlp, "activation-first": actFirst} {
		t.Run(name, func(t *testing.T) {
			p := net.NewPredictor()
			var buf []int
			for _, chunk := range [][2]int{{0, 40}, {3, 20}, {0, 40}} {
				x := nn.FromRows(rowsOf(signed, chunk[0], chunk[1]))
				keep := x.Clone()
				want := net.Predict(x)
				buf = p.PredictInto(buf, x)
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("rows %v: PredictInto row %d = %d, Predict %d", chunk, i, buf[i], want[i])
					}
				}
				if !nn.Equalish(x, keep, 0) {
					t.Fatalf("rows %v: PredictInto changed its input", chunk)
				}
				xb := nn.FromRows(rowsOf(bitRows, chunk[0], chunk[1]))
				sub := &nn.BitMatrix{Rows: xb.Rows, Cols: xb.Cols, Data: packed.Data[chunk[0]*packed.Words() : chunk[1]*packed.Words()]}
				want = net.Predict(xb)
				buf = p.PredictBitsInto(buf, sub)
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("rows %v: PredictBitsInto row %d = %d, Predict %d", chunk, i, buf[i], want[i])
					}
				}
			}
		})
	}
}

// rowsOf copies rows [lo, hi) of m into a fresh slice-of-rows.
func rowsOf(m *nn.Matrix, lo, hi int) [][]float64 {
	rows := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, append([]float64(nil), m.Row(i)...))
	}
	return rows
}

// TestFitShardedSteadyStateAllocs: after the first Fit call has built
// the engine and scratch, further Fit calls allocate only the
// per-call bookkeeping (order slice, history, PRNG) — nothing per step,
// for every layer family but the LSTM.
func TestFitShardedSteadyStateAllocs(t *testing.T) {
	x, y := synthData(prng.New(8), 256, 12)
	for _, nf := range fitFactories {
		t.Run(nf.name, func(t *testing.T) {
			net := nf.build()
			// A persistent optimizer is part of the steady state: its
			// moment slices are keyed by parameter identity and reused
			// across calls.
			cfg := nn.FitConfig{Epochs: 1, BatchSize: 32, Seed: 3, Workers: 1, Optimizer: nn.NewAdam(0)}
			if _, err := net.Fit(x, y, cfg); err != nil {
				t.Fatal(err)
			}
			steps := 8.0 // 256 rows / batch 32
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := net.Fit(x, y, cfg); err != nil {
					t.Fatal(err)
				}
			})
			// Per-call bookkeeping (shuffle order, History, PRNG) is
			// allowed; nothing may allocate per training step.
			if perStep := allocs / steps; perStep > 1 {
				t.Fatalf("steady-state Fit allocated %.1f objects over %v steps (%.2f/step); want ≤ 1/step", allocs, steps, perStep)
			}
		})
	}
}

// TestFitReleasesWorkers: every pool worker exits when its Fit call
// ends, including one that was handed no step and first runs after
// the pool closed. GOMAXPROCS=1 makes that the common case: one worker
// drains every step's tokens while the others wait to be scheduled.
func TestFitReleasesWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net, err := nn.MLP(8, []int{4}, 2, nn.ReLU, prng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	x, y := synthData(prng.New(2), 16, 8)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := net.Fit(x, y, nn.FitConfig{Epochs: 1, BatchSize: 16, Workers: 8}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Fit, %d after: pool workers leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkFit measures one training epoch of the Table 3 Gimli MLP
// shape (128-bit difference features) at serial and parallel worker
// counts, from float rows and (the bits sub-benchmarks) from the same
// rows packed, which trains the first layer on the packed engine.
// Steady state reuses the cached engine, so allocs/op stays at the
// per-call bookkeeping floor. The lstm sub-benchmarks train an LSTM
// over the same rows as 16 timesteps of 8 bits, whose replicas
// allocate their BPTT caches every step.
func BenchmarkFit(b *testing.B) {
	x, y := synthData(prng.New(3), 1024, 128)
	xb := packRows(x)
	mlp := func(r *prng.Rand) (*nn.Network, error) { return nn.MLP(128, []int{128, 128}, 2, nn.ReLU, r) }
	fitNet := func(b *testing.B, build func(*prng.Rand) (*nn.Network, error), w int, train func(*nn.Network, nn.FitConfig) error) {
		net, err := build(prng.New(5))
		if err != nil {
			b.Fatal(err)
		}
		cfg := nn.FitConfig{Epochs: 1, BatchSize: 128, Seed: 9, Workers: w, Optimizer: nn.NewAdam(0)}
		if err := train(net, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := train(net, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	fitFloat := func(net *nn.Network, cfg nn.FitConfig) error {
		_, err := net.Fit(x, y, cfg)
		return err
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { fitNet(b, mlp, w, fitFloat) })
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("bits/workers=%d", w), func(b *testing.B) {
			fitNet(b, mlp, w, func(net *nn.Network, cfg nn.FitConfig) error {
				_, err := net.FitBits(xb, y, cfg)
				return err
			})
		})
	}
	lstm := func(r *prng.Rand) (*nn.Network, error) {
		return nn.NewNetwork(nn.NewLSTM(16, 8, 32, r), nn.NewDense(32, 2, r))
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("lstm/workers=%d", w), func(b *testing.B) { fitNet(b, lstm, w, fitFloat) })
	}
}
