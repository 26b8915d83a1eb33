package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/prng"
)

// layerwiseOutputs is the Predictor's pass before it cut rows into
// blocks, kept as the specification of the block pass: fresh replicas
// run one layer at a time over the whole batch, the packed first layer
// unfused with its ReLU as a layer of its own, and the head's outputs
// are returned before the argmax. Exactly one of x and xb is set.
func layerwiseOutputs(n *Network, x *Matrix, xb *BitMatrix) *Matrix {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.replica()
	}
	if xb == nil {
		return forwardFrom(layers, x, x)
	}
	d, ok := layers[0].(*Dense)
	if !ok {
		return forwardFrom(layers, xb.expand(NewMatrix(xb.Rows, xb.Cols)), nil)
	}
	return forwardFrom(layers[1:], d.forwardBits(xb, false, false), nil)
}

// predictorNets are the network families the block pass must
// reproduce: the Table 2 MLP (Dense, fused ReLU, 128→2 head), a
// 70→13→6→3 ReLU MLP whose widths leave kernel tails, the same shape
// with LeakyReLU (not fused), a Conv1D network and the LSTM stack
// (packed blocks expanded to floats). Biases are drawn too, so the
// hidden units' signs do not follow from the weights alone.
func predictorNets(t *testing.T) map[string]*Network {
	t.Helper()
	r := prng.New(26)
	table2, err1 := MLP(128, []int{128}, 2, ReLU, r)
	relu, err2 := MLP(70, []int{13, 6}, 3, ReLU, r)
	leaky, err3 := MLP(70, []int{13, 6}, 3, LeakyReLU, r)
	conv, err4 := NewNetwork(NewConv1D(16, 1, 2, 3, r), NewActivation(ReLU, 32), NewDense(32, 2, r))
	lstm, err5 := lstmStack(r)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			t.Fatal(err)
		}
	}
	nets := map[string]*Network{"table2": table2, "relu": relu, "leaky": leaky, "conv1d": conv, "lstm": lstm}
	for _, net := range nets {
		for _, p := range net.Params() {
			if strings.HasSuffix(p.Name, ".b") {
				for i := range p.W {
					p.W[i] = r.NormFloat64() / 2
				}
			}
		}
	}
	return nets
}

// TestPredictorMatchesLayerwise: the block pass's head outputs and
// classes equal the layer-by-layer pass bit for bit, from float and
// packed rows, at row counts around one block and past many, at
// GOMAXPROCS 1, 2 and 7, with the AVX2 kernels on and forced off.
func TestPredictorMatchesLayerwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, net := range predictorNets(t) {
		for _, rows := range []int{0, 1, 63, 64, 65, 4097} {
			x, xb := randBits(prng.New(uint64(rows)), rows, net.InDim(), true)
			for _, scalar := range []bool{false, true} {
				run := func() {
					want := layerwiseOutputs(net, x, nil)
					wantBits := layerwiseOutputs(net, nil, xb)
					matricesBitIdentical(t, name+" packed reference", wantBits, want)
					for _, procs := range []int{1, 2, 7} {
						runtime.GOMAXPROCS(procs)
						what := fmt.Sprintf("%s rows=%d scalar=%v procs=%d", name, rows, scalar, procs)
						p := net.NewPredictor()
						p.logits = NewMatrix(rows, net.Classes())
						checkClasses(t, what+" float", p.PredictInto(nil, x), want)
						matricesBitIdentical(t, what+" float outputs", p.logits, want)
						clear(p.logits.Data)
						checkClasses(t, what+" packed", p.PredictBitsInto(nil, xb), want)
						matricesBitIdentical(t, what+" packed outputs", p.logits, want)
					}
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

// checkClasses fails unless got holds the argmax of each row of out.
func checkClasses(t *testing.T, what string, got []int, out *Matrix) {
	t.Helper()
	if len(got) != out.Rows {
		t.Fatalf("%s: %d classes for %d rows", what, len(got), out.Rows)
	}
	for i, c := range got {
		if want := Argmax(out.Row(i)); c != want {
			t.Fatalf("%s: row %d class %d, want %d", what, i, c, want)
		}
	}
}

// TestFusedReLUSpecials: the first layer's fused ReLU equals a ReLU
// Activation over the unfused output bit for bit where the sums hold
// NaN (an Inf weight pair, a NaN weight or bias), ±Inf, −0 weights and
// biases, and an exact cancellation to zero, at output widths that
// take two full tiles (128), full and narrow tiles (200), every kernel
// and a plain-Go tail (70), narrow tiles and a tail (13), and the tail
// alone (3), with the AVX2 kernels on and forced off.
func TestFusedReLUSpecials(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, out := range []int{128, 200, 70, 13, 3} {
		r := prng.New(uint64(out))
		_, xb := randBits(r, 300, 70, true)
		// Rows 0–3 isolate the specials: only features 0 and 1, only 0,
		// only 1, and no bit at all.
		for i, row := range [][]uint64{{3, 0}, {1, 0}, {2, 0}, {0, 0}} {
			copy(xb.Row(i), row)
		}
		d := NewDense(70, out, r)
		for j := 0; j < out; j++ {
			w0, w1 := &d.w.W[j], &d.w.W[out+j]
			switch j % 6 {
			case 0: // exact cancellation: +0 on row 0, then the bias
				*w0, *w1, d.b.W[j] = 0.375, -0.375, negZero
			case 1: // +Inf + −Inf is NaN
				*w0, *w1 = math.Inf(1), math.Inf(-1)
			case 2:
				*w0, d.b.W[j] = math.NaN(), 0.5
			case 3:
				*w0, *w1, d.b.W[j] = negZero, negZero, negZero
			case 4:
				*w1, d.b.W[j] = math.Inf(-1), math.NaN()
			case 5:
				*w0, d.b.W[j] = math.Inf(1), -1
			}
		}
		x := NewMatrix(xb.Rows, xb.Cols)
		xb.expand(x)
		for _, scalar := range []bool{false, true} {
			run := func() {
				want := NewActivation(ReLU, out).Forward(d.Forward(x, false), false)
				what := fmt.Sprintf("out=%d scalar=%v", out, scalar)
				matricesBitIdentical(t, what, d.forwardBits(xb, false, true), want)
			}
			if scalar {
				forceScalarMul(run)
			} else {
				run()
			}
		}
	}
}

// TestPredictorSteadyStateAllocs: once a Predictor has run, a call of
// at most one block allocates nothing, from float and packed rows, for
// every network family.
func TestPredictorSteadyStateAllocs(t *testing.T) {
	for name, net := range predictorNets(t) {
		for _, rows := range []int{1, predictBlock} {
			x, xb := randBits(prng.New(3), rows, net.InDim(), false)
			p := net.NewPredictor()
			dst := p.PredictInto(nil, x)
			p.PredictBitsInto(dst, xb)
			for what, call := range map[string]func(){
				"float":  func() { p.PredictInto(dst, x) },
				"packed": func() { p.PredictBitsInto(dst, xb) },
			} {
				if a := testing.AllocsPerRun(20, call); a != 0 {
					t.Fatalf("%s rows=%d %s: %v allocations per call, want 0", name, rows, what, a)
				}
			}
		}
	}
}

// TestPredictorsConcurrent: two Predictors of one network predict at
// the same time, as the serving scheduler's workers do, each with its
// own helpers, and both match the layer-by-layer pass. Run under -race
// it also checks that Predictors share nothing but the weights.
func TestPredictorsConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	net := predictorNets(t)["table2"]
	_, xb := randBits(prng.New(9), 1000, 128, false)
	want := layerwiseOutputs(net, nil, xb)
	var wg sync.WaitGroup
	got := make([][]int, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := net.NewPredictor()
			for i := 0; i < 5; i++ {
				got[g] = p.PredictBitsInto(got[g], xb)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		checkClasses(t, fmt.Sprintf("predictor %d", g), got[g], want)
	}
}
