package nn

import (
	"fmt"
	"math"

	"repro/internal/prng"
)

// Conv1D is a one-dimensional convolution over a per-sample sequence.
// The flat input row of width SeqLen·InCh is interpreted as SeqLen
// timesteps of InCh channels (timestep-major); the output row has
// width SeqLen·Filters under 'same' zero padding and stride 1.
//
// Table 3 of the paper evaluates two CNNs on the 128-bit difference
// vectors and finds accuracy 0.5 — convolutions assume local structure
// that cipher output bits do not have. The layer exists so that this
// negative result is reproducible.
type Conv1D struct {
	SeqLen, InCh, Filters, Kernel int
	w, b                          *Param // w layout: [filter][tap][channel]
	x                             *Matrix
	out                           *Matrix // forward scratch
	dx                            *Matrix // backward scratch

	scratchEval bool
	seq         bool
}

// NewConv1D creates a Conv1D layer with Glorot-uniform weights.
// kernel must be odd so that 'same' padding is symmetric.
func NewConv1D(seqLen, inCh, filters, kernel int, r *prng.Rand) *Conv1D {
	if seqLen <= 0 || inCh <= 0 || filters <= 0 || kernel <= 0 || kernel%2 == 0 {
		panic(fmt.Sprintf("nn: invalid Conv1D config L=%d C=%d F=%d K=%d", seqLen, inCh, filters, kernel))
	}
	c := &Conv1D{
		SeqLen: seqLen, InCh: inCh, Filters: filters, Kernel: kernel,
		w: &Param{
			Name: fmt.Sprintf("conv1d.W[%d,%d,%d]", filters, kernel, inCh),
			W:    make([]float64, filters*kernel*inCh),
			Grad: make([]float64, filters*kernel*inCh),
		},
		b: &Param{
			Name: "conv1d.b",
			W:    make([]float64, filters),
			Grad: make([]float64, filters),
		},
	}
	fanIn := kernel * inCh
	fanOut := kernel * filters
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range c.w.W {
		c.w.W[i] = (2*r.Float64() - 1) * limit
	}
	return c
}

// Name identifies the layer.
func (c *Conv1D) Name() string {
	return fmt.Sprintf("Conv1D(L=%d,C=%d→F=%d,K=%d)", c.SeqLen, c.InCh, c.Filters, c.Kernel)
}

// InDim returns SeqLen·InCh.
func (c *Conv1D) InDim() int { return c.SeqLen * c.InCh }

// OutDim returns SeqLen·Filters.
func (c *Conv1D) OutDim() int { return c.SeqLen * c.Filters }

// Params returns the kernel and bias tensors.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

// wAt indexes the kernel tensor.
func (c *Conv1D) wAt(f, tap, ch int) int { return (f*c.Kernel+tap)*c.InCh + ch }

// Forward computes the 'same'-padded convolution.
func (c *Conv1D) Forward(x *Matrix, train bool) *Matrix {
	if x.Cols != c.InDim() {
		panic(fmt.Sprintf("nn: %s got input width %d", c.Name(), x.Cols))
	}
	var out *Matrix
	if train || c.scratchEval {
		if train {
			c.x = x
		}
		c.out = ensureMatrix(c.out, x.Rows, c.OutDim())
		out = c.out
	} else {
		out = NewMatrix(x.Rows, c.OutDim())
	}
	if c.seq {
		// No closure here: it would escape to the heap on every
		// training step.
		c.forwardRows(x, out, 0, x.Rows)
	} else {
		parallelRows(x.Rows, x.Rows*c.SeqLen*c.Filters*c.Kernel*c.InCh, func(lo, hi int) {
			c.forwardRows(x, out, lo, hi)
		})
	}
	return out
}

// forwardRows convolves rows [lo, hi) of x into out.
func (c *Conv1D) forwardRows(x, out *Matrix, lo, hi int) {
	half := c.Kernel / 2
	for n := lo; n < hi; n++ {
		in := x.Row(n)
		o := out.Row(n)
		for t := 0; t < c.SeqLen; t++ {
			for f := 0; f < c.Filters; f++ {
				s := c.b.W[f]
				for tap := 0; tap < c.Kernel; tap++ {
					tt := t + tap - half
					if tt < 0 || tt >= c.SeqLen {
						continue
					}
					for ch := 0; ch < c.InCh; ch++ {
						s += c.w.W[c.wAt(f, tap, ch)] * in[tt*c.InCh+ch]
					}
				}
				o[t*c.Filters+f] = s
			}
		}
	}
}

// Backward accumulates kernel/bias gradients and returns dL/dinput.
func (c *Conv1D) Backward(grad *Matrix) *Matrix {
	if c.x == nil {
		panic("nn: Conv1D.Backward before Forward(train=true)")
	}
	c.dx = ensureMatrix(c.dx, c.x.Rows, c.x.Cols)
	dx := c.dx
	zeroFloats(dx.Data)
	half := c.Kernel / 2
	// Sequential over samples: gradient accumulation into shared
	// buffers must not race.
	for n := 0; n < c.x.Rows; n++ {
		in := c.x.Row(n)
		g := grad.Row(n)
		dxr := dx.Row(n)
		for t := 0; t < c.SeqLen; t++ {
			for f := 0; f < c.Filters; f++ {
				gv := g[t*c.Filters+f]
				if gv == 0 {
					continue
				}
				c.b.Grad[f] += gv
				for tap := 0; tap < c.Kernel; tap++ {
					tt := t + tap - half
					if tt < 0 || tt >= c.SeqLen {
						continue
					}
					for ch := 0; ch < c.InCh; ch++ {
						c.w.Grad[c.wAt(f, tap, ch)] += gv * in[tt*c.InCh+ch]
						dxr[tt*c.InCh+ch] += gv * c.w.W[c.wAt(f, tap, ch)]
					}
				}
			}
		}
	}
	return dx
}

// cloneForTrain returns a training replica sharing the kernel weights
// but owning caches and (engine-bound) gradient buffers. The backward
// pass is already sample-sequential, so a replica processing one shard
// accumulates exactly the chain a serial pass over that shard would.
func (c *Conv1D) cloneForTrain() Layer {
	return &Conv1D{
		SeqLen: c.SeqLen, InCh: c.InCh, Filters: c.Filters, Kernel: c.Kernel,
		w:           &Param{Name: c.w.Name, W: c.w.W},
		b:           &Param{Name: c.b.Name, W: c.b.W},
		scratchEval: true,
		seq:         true,
	}
}

// cloneForEval returns an inference replica with reusable scratch.
func (c *Conv1D) cloneForEval() Layer {
	return &Conv1D{
		SeqLen: c.SeqLen, InCh: c.InCh, Filters: c.Filters, Kernel: c.Kernel,
		w:           &Param{Name: c.w.Name, W: c.w.W},
		b:           &Param{Name: c.b.Name, W: c.b.W},
		scratchEval: true,
	}
}
