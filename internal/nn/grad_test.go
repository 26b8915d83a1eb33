package nn

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// lossOn computes the softmax cross-entropy of the network on (x, y)
// in TRAINING mode: the analytic gradients differentiate the
// train-mode forward pass. All layers used in these tests are
// deterministic in train mode.
func lossOn(n *Network, x *Matrix, y []int) float64 {
	return CrossEntropy(Softmax(n.Forward(x, true)), y)
}

// checkGradients validates every parameter gradient of n against a
// central finite difference on the given batch.
func checkGradients(t *testing.T, n *Network, x *Matrix, y []int, tol float64) {
	t.Helper()
	// Zero-initialized biases can place ReLU pre-activations exactly at
	// the kink (e.g. a sample whose previous layer output is all zero),
	// where the loss is genuinely non-differentiable and the finite
	// difference measures the average of the two one-sided slopes.
	// Nudge every parameter off such measure-zero alignments.
	jitter := prng.New(0xabcdef)
	for _, p := range n.Params() {
		for i := range p.W {
			p.W[i] += (jitter.Float64() - 0.5) * 0.02
		}
	}
	// Analytic gradients.
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
	logits := n.Forward(x, true)
	probs := Softmax(logits)
	grad := SoftmaxCrossEntropyGrad(probs, y)
	layers := n.Layers()
	for i := len(layers) - 1; i >= 0; i-- {
		grad = layers[i].Backward(grad)
	}

	numericAt := func(p *Param, i int, h float64) float64 {
		orig := p.W[i]
		p.W[i] = orig + h
		up := lossOn(n, x, y)
		p.W[i] = orig - h
		down := lossOn(n, x, y)
		p.W[i] = orig
		return (up - down) / (2 * h)
	}
	checked, skipped := 0, 0
	for _, p := range n.Params() {
		// Check a spread of indices to keep runtime bounded.
		step := len(p.W)/25 + 1
		for i := 0; i < len(p.W); i += step {
			// Two step sizes: if they disagree, the perturbation
			// crosses a ReLU/LeakyReLU kink and the finite difference
			// is meaningless at this point — skip it rather than
			// compare garbage.
			n1 := numericAt(p, i, 1e-5)
			n2 := numericAt(p, i, 1e-6)
			scale := math.Max(1, math.Max(math.Abs(n1), math.Abs(n2)))
			if math.Abs(n1-n2)/scale > tol/10 {
				skipped++
				continue
			}
			analytic := p.Grad[i]
			scale = math.Max(1, math.Max(math.Abs(n2), math.Abs(analytic)))
			if math.Abs(n2-analytic)/scale > tol {
				t.Fatalf("%s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, analytic, n2)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("gradient check skipped every index")
	}
	if skipped > checked {
		t.Fatalf("gradient check skipped %d of %d points — inputs too kink-heavy", skipped, skipped+checked)
	}
}

func smallBatch(r *prng.Rand, n, d, classes int) (*Matrix, []int) {
	x := randMatrix(r, n, d)
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(classes)
	}
	return x, y
}

func TestGradDenseReLU(t *testing.T) {
	r := prng.New(1)
	net, err := MLP(6, []int{5, 4}, 3, ReLU, r)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(r, 7, 6, 3)
	checkGradients(t, net, x, y, 1e-4)
}

func TestGradDenseLeakyReLU(t *testing.T) {
	r := prng.New(2)
	net, err := MLP(6, []int{8}, 2, LeakyReLU, r)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(r, 5, 6, 2)
	checkGradients(t, net, x, y, 1e-4)
}

func TestGradSigmoidTanh(t *testing.T) {
	r := prng.New(3)
	net, err := NewNetwork(
		NewDense(4, 6, r), NewActivation(Sigmoid, 6),
		NewDense(6, 5, r), NewActivation(Tanh, 5),
		NewDense(5, 2, r),
	)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(r, 6, 4, 2)
	checkGradients(t, net, x, y, 1e-4)
}

func TestGradConv1D(t *testing.T) {
	r := prng.New(4)
	c1 := NewConv1D(10, 1, 3, 3, r)
	c2 := NewConv1D(10, 3, 2, 3, r)
	net, err := NewNetwork(
		c1, NewActivation(ReLU, c1.OutDim()),
		c2,
		NewDense(c2.OutDim(), 2, r),
	)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(r, 4, 10, 2)
	checkGradients(t, net, x, y, 1e-4)
}

func TestGradLSTM(t *testing.T) {
	r := prng.New(5)
	l := NewLSTM(5, 3, 4, r)
	net, err := NewNetwork(l, NewDense(4, 2, r))
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(r, 6, 15, 2)
	checkGradients(t, net, x, y, 1e-4)
}

func TestGradStackedLSTMReturnSeq(t *testing.T) {
	r := prng.New(6)
	l1 := NewLSTM(4, 3, 5, r)
	l1.ReturnSeq = true
	l2 := NewLSTM(4, 5, 4, r)
	net, err := NewNetwork(l1, l2, NewDense(4, 3, r))
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(r, 5, 12, 3)
	checkGradients(t, net, x, y, 1e-4)
}

func TestGradInputGradient(t *testing.T) {
	// dL/dx must also match finite differences (it drives deeper
	// layers' correctness).
	r := prng.New(7)
	net, err := MLP(4, []int{6}, 2, ReLU, r)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(r, 3, 4, 2)

	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	probs := Softmax(net.Forward(x, true))
	grad := SoftmaxCrossEntropyGrad(probs, y)
	layers := net.Layers()
	for i := len(layers) - 1; i >= 0; i-- {
		grad = layers[i].Backward(grad)
	}
	dx := grad

	const h = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := lossOn(net, x, y)
		x.Data[i] = orig - h
		down := lossOn(net, x, y)
		x.Data[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-dx.Data[i]) > 1e-4 {
			t.Fatalf("dx[%d]: analytic %.8f vs numeric %.8f", i, dx.Data[i], numeric)
		}
	}
}
