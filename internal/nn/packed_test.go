package nn

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/prng"
)

// randBits draws rows×cols {0,1} features as float rows plus the same
// rows packed. With junk set, every bit past cols in a row's last word
// is set in the packed copy: consumers must ignore them.
func randBits(r *prng.Rand, rows, cols int, junk bool) (*Matrix, *BitMatrix) {
	x := NewMatrix(rows, cols)
	xb := &BitMatrix{Rows: rows, Cols: cols}
	xb.Data = make([]uint64, rows*xb.Words())
	for i := 0; i < rows; i++ {
		row := xb.Row(i)
		for j := 0; j < cols; j++ {
			if r.Intn(2) == 1 {
				x.Set(i, j, 1)
				row[j/64] |= 1 << (j % 64)
			}
		}
		if junk {
			row[len(row)-1] |= ^xb.tailMask()
		}
	}
	return x, xb
}

// parity labels each row by the XOR of its first and last feature.
func parity(x *Matrix) []int {
	y := make([]int, x.Rows)
	for i := range y {
		if x.At(i, 0) != x.At(i, x.Cols-1) {
			y[i] = 1
		}
	}
	return y
}

// trainedBits is a fitted network's history and weights as bit patterns.
func trainedBits(net *Network, h *History) []uint64 {
	var out []uint64
	for e := range h.Loss {
		out = append(out, math.Float64bits(h.Loss[e]), math.Float64bits(h.Acc[e]))
	}
	for _, p := range net.Params() {
		for _, w := range p.W {
			out = append(out, math.Float64bits(w))
		}
	}
	return out
}

func matricesBitIdentical(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, scalar %x", what,
				i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

func firstDiff(a, b []uint64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestFitBitsMatchesFit: training from packed rows must reproduce
// training from the equivalent float rows bit for bit — History and
// every weight — at input widths below, at and above one word, with
// junk tail bits in the packed rows, for ReLU and LeakyReLU, with a
// first layer of 24 units (narrow tiles) and of 128 (two full tiles),
// at 1/4/7 workers, with the AVX2 kernels on and forced off. The 70-row
// set in 16-row batches leaves a partial final batch with empty shards.
func TestFitBitsMatchesFit(t *testing.T) {
	for _, cols := range []int{13, 70, 128, 200} {
		for _, hidden := range [][]int{{24, 9}, {128, 9}} {
			for _, act := range []ActKind{ReLU, LeakyReLU} {
				r := prng.New(uint64(cols))
				x, xb := randBits(r, 70, cols, cols%64 != 0)
				y := parity(x)
				train := func(workers int, packed bool) []uint64 {
					net, err := MLP(cols, hidden, 2, act, prng.New(7))
					if err != nil {
						t.Fatal(err)
					}
					cfg := FitConfig{Epochs: 2, BatchSize: 16, Seed: 5, Workers: workers}
					var h *History
					if packed {
						h, err = net.FitBits(xb, y, cfg)
					} else {
						h, err = net.Fit(x, y, cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					return trainedBits(net, h)
				}
				ref := train(1, false)
				for _, workers := range []int{1, 4, 7} {
					for _, scalar := range []bool{false, true} {
						for _, packed := range []bool{false, true} {
							var got []uint64
							run := func() { got = train(workers, packed) }
							if scalar {
								forceScalarMul(run)
							} else {
								run()
							}
							if i := firstDiff(got, ref); i >= 0 {
								t.Fatalf("cols=%d hidden=%v %v workers=%d scalar=%v packed=%v: scalar %d differs from float serial training",
									cols, hidden, act, workers, scalar, packed, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestDenseBitsKernelsMatchFloat: the packed first-layer forward, plain
// and with the Predictor's fused ReLU, and the weight gradient equal
// the float kernels to the last bit, including the sign of zero.
// The output widths reach the narrow tile alone (4, 9, 33), one or more
// full tiles (64, 128), and both with a plain-Go tail (70, 200); the
// row counts fall on either side of the gradient's 64-sample block.
func TestDenseBitsKernelsMatchFloat(t *testing.T) {
	for _, cols := range []int{1, 63, 64, 65, 130} {
		for _, out := range []int{1, 3, 4, 9, 33, 64, 70, 128, 200} {
			for _, rows := range []int{64, 65, 97, 130} {
				r := prng.New(uint64(cols*100 + out + rows<<16))
				x, xb := randBits(r, rows, cols, true)
				d := NewDense(cols, out, r)
				// Negative zeros in W and b: 0 + (−0) is +0, so a kernel
				// that copied the first weight row instead of adding it
				// to zero would keep a −0 the float product does not,
				// and a −0 bias keeps that sign through the bias add.
				negZero := math.Copysign(0, -1)
				for i := 0; i < len(d.w.W); i += 5 {
					d.w.W[i] = negZero
				}
				for i := range d.b.W {
					d.b.W[i] = negZero
				}
				g := randMatrix(r, rows, out)
				for _, scalar := range []bool{false, true} {
					run := func() {
						what := fmt.Sprintf("cols=%d out=%d rows=%d scalar=%v", cols, out, rows, scalar)
						want := d.Forward(x, false)
						matricesBitIdentical(t, what+" forward", d.forwardBits(xb, true, false), want)
						wantReLU := NewActivation(ReLU, out).Forward(want, false)
						matricesBitIdentical(t, what+" fused ReLU forward", d.forwardBits(xb, false, true), wantReLU)
						wantG := randMatrix(r, cols, out)
						for i := 0; i < len(wantG.Data); i += 7 {
							wantG.Data[i] = negZero
						}
						gotG := wantG.Clone()
						MulTNAcc(wantG.Data, x, g)
						bitsMulTNAcc(gotG.Data, xb, g)
						matricesBitIdentical(t, what+" weight gradient", gotG, wantG)
					}
					if scalar {
						forceScalarMul(run)
					} else {
						run()
					}
				}
			}
		}
	}
}

// TestPredictBitsMatchesPredict: packed and float Predictor outputs
// agree for a Dense-first network (packed forward) and for networks
// that expand the rows to floats (Conv1D or LSTM first).
func TestPredictBitsMatchesPredict(t *testing.T) {
	r := prng.New(31)
	mlp, _ := MLP(70, []int{24}, 3, LeakyReLU, r)
	cnn, _ := NewNetwork(NewConv1D(16, 1, 2, 3, r), NewActivation(ReLU, 32), NewDense(32, 2, r))
	lstm, _ := NewNetwork(NewLSTM(4, 4, 5, r), NewDense(5, 2, r))
	for _, net := range []*Network{mlp, cnn, lstm} {
		x, xb := randBits(r, 300, net.InDim(), true)
		p := net.NewPredictor()
		want := append([]int(nil), p.PredictInto(nil, x)...)
		got := p.PredictBitsInto(nil, xb)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d packed class %d, float %d", net.layers[0].Name(), i, got[i], want[i])
			}
		}
	}
}

// TestFitBitsFallbacks: networks whose first layer is not Dense — a
// Conv1D or an LSTM — train on the expanded rows with results equal to
// Fit's, and so does a Dense first layer ahead of an LSTM, which reads
// the packed rows.
func TestFitBitsFallbacks(t *testing.T) {
	builds := map[string]func() *Network{
		"conv1d": func() *Network {
			r := prng.New(3)
			net, _ := NewNetwork(NewConv1D(16, 1, 2, 3, r), NewActivation(ReLU, 32), NewDense(32, 2, r))
			return net
		},
		"lstm-stack": func() *Network {
			net, _ := lstmStack(prng.New(4))
			return net
		},
		"dense-lstm": func() *Network {
			net, _ := denseLSTM(prng.New(4))
			return net
		},
	}
	for name, build := range builds {
		x, xb := randBits(prng.New(5), 40, 16, true)
		y := parity(x)
		cfg := FitConfig{Epochs: 2, BatchSize: 8, Seed: 1, Workers: 3}
		a, b := build(), build()
		ha, err := a.Fit(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.FitBits(xb, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(trainedBits(b, hb), trainedBits(a, ha)); i >= 0 {
			t.Fatalf("%s: FitBits differs from Fit at scalar %d", name, i)
		}
	}
}

// TestFitSkipsFirstLayerInputGradient: the training engine's replicas
// never compute layer 0's input gradient, whose result nothing reads,
// in an MLP and ahead of an LSTM alike; and the network's own layers
// never train.
func TestFitSkipsFirstLayerInputGradient(t *testing.T) {
	x, _ := randBits(prng.New(6), 40, 16, false)
	y := parity(x)
	cfg := FitConfig{Epochs: 1, BatchSize: 8, Workers: 2}
	mlp, _ := MLP(16, []int{8}, 2, ReLU, prng.New(7))
	lstm, _ := denseLSTM(prng.New(7))
	for _, net := range []*Network{mlp, lstm} {
		if _, err := net.Fit(x, y, cfg); err != nil {
			t.Fatal(err)
		}
		name := net.layers[1].Name()
		// Worker 0 always runs shards; the others may find none left.
		if net.fit.clones[0][2].(*Dense).dx == nil {
			t.Fatalf("%s: layer 2 computed no input gradient", name)
		}
		for w, layers := range net.fit.clones {
			if layers[0].(*Dense).dx != nil {
				t.Fatalf("%s worker %d: layer 0 computed an input gradient", name, w)
			}
		}
		if d := net.layers[0].(*Dense); d.x != nil || d.xb != nil || d.dx != nil {
			t.Fatalf("%s: the network's own layer 0 ran a training pass", name)
		}
	}
}

// BenchmarkDenseBits times the packed first layer's kernels on one
// goroutine, on random half-dense rows of 128 features: the forward
// pass as a training shard runs it, at 16 rows and at 2 048 rows, and
// the weight gradient of a 16-row shard. Each runs at the production
// width of 128 outputs and at 70, whose last columns take the narrow
// tile and the plain-Go tail. ns/setbit is the time per set input bit,
// each of which adds one row of 128 or 70 doubles.
func BenchmarkDenseBits(b *testing.B) {
	for _, out := range []int{128, 70} {
		r := prng.New(uint64(out))
		d := NewDense(128, out, r)
		for _, rows := range []int{16, 2048} {
			_, xb := randBits(r, rows, 128, false)
			b.Run(fmt.Sprintf("forward/out=%d/rows=%d", out, rows), func(b *testing.B) {
				benchSetBits(b, xb, func() { d.forwardBits(xb, true, false) })
			})
		}
		_, xb := randBits(r, 16, 128, false)
		g := randMatrix(r, 16, out)
		acc := make([]float64, 128*out)
		b.Run(fmt.Sprintf("gradient/out=%d/rows=16", out), func(b *testing.B) {
			benchSetBits(b, xb, func() { bitsMulTNAcc(acc, xb, g) })
		})
	}
}

// benchSetBits runs fn b.N times and reports the time per set bit of x.
func benchSetBits(b *testing.B, x *BitMatrix, fn func()) {
	set := 0
	for _, w := range x.Data {
		set += bits.OnesCount64(w)
	}
	fn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*set), "ns/setbit")
}
