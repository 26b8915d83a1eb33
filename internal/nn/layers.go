package nn

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/prng"
)

// Param is one trainable tensor: a flat weight buffer and its gradient
// accumulator of identical length.
type Param struct {
	Name string
	W    []float64
	Grad []float64
}

// Layer is one differentiable stage of a network. Forward consumes a
// batch (rows = samples) and caches what Backward needs; Backward
// consumes dL/doutput, accumulates parameter gradients and returns
// dL/dinput. Layers are not safe for concurrent use.
//
// Forward(x, true) and Backward run their kernels on the calling
// goroutine: only the training engine's replicas train, and its shards
// are already the parallelism. So does Forward(x, false) on a replica,
// which a Predictor worker runs on one block of rows. Forward(x, false)
// on a network's own layer splits large products across goroutines.
type Layer interface {
	Name() string
	// InDim and OutDim are the per-sample feature widths, used for
	// build-time shape validation.
	InDim() int
	OutDim() int
	Forward(x *Matrix, train bool) *Matrix
	Backward(grad *Matrix) *Matrix
	Params() []*Param
	// replica returns a layer that shares this one's weights but owns
	// its caches, scratch buffers and gradient buffers. The training
	// engine trains one replica stack per worker, binding the
	// gradients to a shard's accumulator; a Predictor infers through
	// one, reusing its scratch.
	replica() Layer
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	w, b    *Param
	x       *Matrix    // cached float input
	xb      *BitMatrix // cached packed input (forwardBits); nil after a float Forward
	out     *Matrix    // training-time output scratch, reused across steps
	dx      *Matrix    // backward input-gradient scratch, reused across steps
	wm      Matrix     // weight-view header, avoids a heap allocation per call

	// scratchEval is set on replicas: they reuse the output scratch in
	// inference mode too, and run on the calling goroutine.
	scratchEval bool
}

// NewDense creates a Dense layer with Glorot-uniform weights drawn from
// r and zero biases.
func NewDense(in, out int, r *prng.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense shape %d→%d", in, out))
	}
	d := &Dense{
		In:  in,
		Out: out,
		w:   &Param{Name: fmt.Sprintf("dense%dx%d.W", in, out), W: make([]float64, in*out), Grad: make([]float64, in*out)},
		b:   &Param{Name: fmt.Sprintf("dense%dx%d.b", in, out), W: make([]float64, out), Grad: make([]float64, out)},
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.w.W {
		d.w.W[i] = (2*r.Float64() - 1) * limit
	}
	return d
}

// Name identifies the layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// InDim returns the input feature width.
func (d *Dense) InDim() int { return d.In }

// OutDim returns the output feature width.
func (d *Dense) OutDim() int { return d.Out }

// Params returns the weight and bias tensors.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward computes x·W + b. During training the output buffer is
// reused across steps (the value is consumed within the step by the
// following layer and the loss, and Backward only needs the cached
// input), which removes one batch-sized allocation per layer per
// mini-batch.
func (d *Dense) Forward(x *Matrix, train bool) *Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: %s got input width %d", d.Name(), x.Cols))
	}
	var out *Matrix
	if train || d.scratchEval {
		if train {
			d.x, d.xb = x, nil
		}
		d.wm = Matrix{Rows: d.In, Cols: d.Out, Data: d.w.W}
		d.out = ensureMatrix(d.out, x.Rows, d.Out)
		out = mulIntoSeq(d.out, x, &d.wm)
	} else {
		// Plain inference writes no layer field, so concurrent
		// Forward(x, false) calls on one network are safe.
		out = Mul(x, &Matrix{Rows: d.In, Cols: d.Out, Data: d.w.W})
	}
	out.AddRowVector(d.b.W)
	return out
}

// forwardBits is Forward for packed {0,1} input, into the layer's
// output scratch on the calling goroutine: b + Σ W[k] over each row's
// set bits, bit-identical to Forward on the 0.0/1.0 float rows (see
// bitsMulRange, which adds the bias too). With relu set the kernels
// also apply a following ReLU before they store, as a Predictor
// worker's fused first layer asks; training passes false, because its
// Activation replica keeps the pre-activations for Backward.
func (d *Dense) forwardBits(x *BitMatrix, train, relu bool) *Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: %s got packed input width %d", d.Name(), x.Cols))
	}
	x.check()
	if train {
		d.x, d.xb = nil, x
	}
	d.out = ensureMatrix(d.out, x.Rows, d.Out)
	d.wm = Matrix{Rows: d.In, Cols: d.Out, Data: d.w.W}
	bitsMulRange(d.out, x, &d.wm, d.b.W, 0, x.Rows, relu)
	return d.out
}

// Backward accumulates dW = xᵀ·g, db = Σ g and returns dx = g·Wᵀ. The
// transposed-gradient product lands directly in the weight gradient and
// the returned matrix is a per-layer scratch buffer (valid until the
// next Backward call), so the steady-state hot loop allocates nothing.
func (d *Dense) Backward(grad *Matrix) *Matrix {
	d.backwardParams(grad)
	d.wm = Matrix{Rows: d.In, Cols: d.Out, Data: d.w.W}
	d.dx = ensureMatrix(d.dx, grad.Rows, d.In)
	return MulNTInto(d.dx, grad, &d.wm)
}

// backwardParams is Backward without the input gradient: it
// accumulates dW and db only. The training engine calls it on layer 0,
// whose dL/dinput nothing reads.
func (d *Dense) backwardParams(grad *Matrix) {
	switch {
	case d.xb != nil:
		bitsMulTNAcc(d.w.Grad, d.xb, grad)
	case d.x == nil:
		panic("nn: Dense.Backward before Forward(train=true)")
	default:
		MulTNAcc(d.w.Grad, d.x, grad)
	}
	colSumsAcc(d.b.Grad, grad)
}

// replica shares the weight and bias values; the gradients stay nil
// until the training engine binds them.
func (d *Dense) replica() Layer {
	return &Dense{
		In: d.In, Out: d.Out,
		w:           &Param{Name: d.w.Name, W: d.w.W},
		b:           &Param{Name: d.b.Name, W: d.b.W},
		scratchEval: true,
	}
}

// Activation is an elementwise nonlinearity layer.
type Activation struct {
	Kind ActKind
	Dim  int
	x    *Matrix
	out  *Matrix // forward scratch (training, and inference on replicas)
	gout *Matrix // backward scratch

	scratchEval bool
}

// ActKind enumerates the supported activation functions.
type ActKind int

// Supported activations. The paper uses ReLU and LeakyReLU for MLPs,
// tanh/sigmoid inside LSTMs.
const (
	ReLU ActKind = iota
	LeakyReLU
	Sigmoid
	Tanh
)

// LeakyAlpha is the LeakyReLU negative-slope coefficient; 0.3 matches
// the Keras default the paper's networks used.
const LeakyAlpha = 0.3

// NewActivation creates an activation layer for feature width dim.
func NewActivation(kind ActKind, dim int) *Activation {
	return &Activation{Kind: kind, Dim: dim}
}

// String names the activation kind.
func (k ActKind) String() string {
	switch k {
	case ReLU:
		return "ReLU"
	case LeakyReLU:
		return "LeakyReLU"
	case Sigmoid:
		return "Sigmoid"
	case Tanh:
		return "Tanh"
	default:
		return fmt.Sprintf("ActKind(%d)", int(k))
	}
}

// Name identifies the layer.
func (a *Activation) Name() string { return a.Kind.String() }

// InDim returns the feature width.
func (a *Activation) InDim() int { return a.Dim }

// OutDim returns the feature width.
func (a *Activation) OutDim() int { return a.Dim }

// Params returns nil: activations are parameter-free.
func (a *Activation) Params() []*Param { return nil }

// actForward is the per-element reference definition of each
// activation. Activation.Forward inlines these expressions in
// kind-specialized loops and is tested against this bit for bit.
func actForward(kind ActKind, v float64) float64 {
	switch kind {
	case ReLU:
		if v > 0 {
			return v
		}
		return 0
	case LeakyReLU:
		if v > 0 {
			return v
		}
		return LeakyAlpha * v
	case Sigmoid:
		return 1 / (1 + math.Exp(-v))
	case Tanh:
		return math.Tanh(v)
	}
	panic("nn: unknown activation")
}

// actGrad returns dout/din given the pre-activation input v: the
// reference Activation.Backward's loops are tested against.
func actGrad(kind ActKind, v float64) float64 {
	switch kind {
	case ReLU:
		if v > 0 {
			return 1
		}
		return 0
	case LeakyReLU:
		if v > 0 {
			return 1
		}
		return LeakyAlpha
	case Sigmoid:
		s := 1 / (1 + math.Exp(-v))
		return s * (1 - s)
	case Tanh:
		th := math.Tanh(v)
		return 1 - th*th
	}
	panic("nn: unknown activation")
}

// Forward applies the nonlinearity elementwise. Training passes (and
// inference on replicas) reuse a per-layer scratch buffer; the value is
// consumed within the step, so the reuse is invisible to callers.
func (a *Activation) Forward(x *Matrix, train bool) *Matrix {
	a.checkWidth(x)
	var out *Matrix
	if train || a.scratchEval {
		if train {
			a.x = x
		}
		a.out = ensureMatrix(a.out, x.Rows, x.Cols)
		out = a.out
	} else {
		out = NewMatrix(x.Rows, x.Cols)
	}
	a.apply(out, x)
	return out
}

// forwardInPlace is inference-mode Forward writing over x, for a
// Predictor whose x is scratch that nothing reads afterwards.
func (a *Activation) forwardInPlace(x *Matrix) *Matrix {
	a.checkWidth(x)
	a.apply(x, x)
	return x
}

func (a *Activation) checkWidth(x *Matrix) {
	if a.Dim > 0 && x.Cols != a.Dim {
		panic(fmt.Sprintf("nn: %s got input width %d, want %d", a.Name(), x.Cols, a.Dim))
	}
}

// positiveMask is all ones when v > 0 and zero otherwise, without a
// branch: the sign of a hidden unit is data, so a v > 0 branch
// mispredicts on about half the elements. v > 0 exactly when its bits
// lie in [1, +Inf's bits], that is when bits−1 is below +Inf's bits;
// the borrow of that subtraction is the answer, and ±0, negatives and
// NaN give none.
func positiveMask(v float64) uint64 {
	_, keep := bits.Sub64(math.Float64bits(v)-1, 0x7ff0000000000000, 0)
	return -keep
}

// reluInto writes the ReLU of src's elements into dst, which may be
// src itself. Keeping v's bits under positiveMask turns ±0, negatives
// and NaN into +0.
func reluInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(v))
	}
}

// apply writes the nonlinearity of x's elements into out, which may be
// x itself: each element is read before it is written. The kind switch
// is hoisted out of the element loops; each loop body computes
// actForward's value for that kind.
func (a *Activation) apply(out, x *Matrix) {
	dst := out.Data[:len(x.Data)]
	switch a.Kind {
	case ReLU:
		reluInto(dst, x.Data)
	case LeakyReLU:
		for i, v := range x.Data {
			if v > 0 {
				dst[i] = v
			} else {
				dst[i] = LeakyAlpha * v
			}
		}
	case Sigmoid:
		for i, v := range x.Data {
			dst[i] = 1 / (1 + math.Exp(-v))
		}
	case Tanh:
		for i, v := range x.Data {
			dst[i] = math.Tanh(v)
		}
	default:
		panic("nn: unknown activation")
	}
}

// Backward multiplies the incoming gradient by the activation's
// derivative at the cached input. The returned matrix is a per-layer
// scratch buffer, valid until the next Backward call.
func (a *Activation) Backward(grad *Matrix) *Matrix {
	if a.x == nil {
		panic("nn: Activation.Backward before Forward(train=true)")
	}
	a.gout = ensureMatrix(a.gout, grad.Rows, grad.Cols)
	// As in Forward, the switch is hoisted and each loop multiplies by
	// actGrad's value for that kind: g·0 (not a literal 0) keeps the
	// sign of zero and NaN propagation of the reference. ReLU and
	// LeakyReLU pick the derivative's bits under positiveMask, without
	// a branch.
	dst := a.gout.Data[:len(grad.Data)]
	xs := a.x.Data[:len(grad.Data)]
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	switch a.Kind {
	case ReLU:
		for i, g := range grad.Data {
			dst[i] = g * math.Float64frombits(one&positiveMask(xs[i]))
		}
	case LeakyReLU:
		alpha := math.Float64bits(LeakyAlpha)
		for i, g := range grad.Data {
			dst[i] = g * math.Float64frombits(alpha^(alpha^one)&positiveMask(xs[i]))
		}
	case Sigmoid:
		for i, g := range grad.Data {
			s := 1 / (1 + math.Exp(-xs[i]))
			dst[i] = g * (s * (1 - s))
		}
	case Tanh:
		for i, g := range grad.Data {
			th := math.Tanh(xs[i])
			dst[i] = g * (1 - th*th)
		}
	default:
		panic("nn: unknown activation")
	}
	return a.gout
}

// replica carries no weights, only scratch.
func (a *Activation) replica() Layer {
	return &Activation{Kind: a.Kind, Dim: a.Dim, scratchEval: true}
}
