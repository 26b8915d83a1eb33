package nn

import (
	"fmt"
	"math"

	"repro/internal/prng"
)

// LSTM is a single-layer Long Short-Term Memory network. The flat
// input row of width SeqLen·InDim is interpreted as SeqLen timesteps
// of InDim features; the layer outputs the final hidden state (width
// Hidden), which is the standard many-to-one classification reduction
// and what the paper's Keras LSTM layers produce by default.
//
// Gate order in the packed weight matrices is (i, f, g, o):
//
//	i_t = σ(x_t·Wx[i] + h_{t−1}·Wh[i] + b[i])
//	f_t = σ(…f…),  g_t = tanh(…g…),  o_t = σ(…o…)
//	c_t = f_t∘c_{t−1} + i_t∘g_t,   h_t = o_t∘tanh(c_t)
//
// Backward implements full backpropagation through time. A training
// replica keeps its per-timestep caches and backward scratch across
// steps, so a training step allocates nothing once the shapes have
// been seen.
type LSTM struct {
	SeqLen, In, Hidden int
	// ReturnSeq selects the output shape: false returns the final
	// hidden state (batch × Hidden); true returns every hidden state
	// (batch × SeqLen·Hidden), which is what stacked LSTM layers
	// consume (Keras return_sequences=True).
	ReturnSeq bool
	wx, wh, b *Param

	fwd   lstmSteps // the last training forward pass, for BPTT
	batch int

	// scratchEval is set on replicas: inference reuses fwd's matrices
	// too, and runs on the calling goroutine.
	scratchEval bool

	// Backward scratch, reused across steps.
	dx, dh, dc, dcPrev, dz, dxt *Matrix
}

// lstmSteps is one forward pass's per-timestep matrices (length
// SeqLen each) and its step scratch. Training and replicas keep it on
// the layer; inference on a network's own layer builds a fresh one, so
// it writes no layer field.
type lstmSteps struct {
	xs             []*Matrix // inputs per step (batch×In)
	is, fs, gs, os []*Matrix // gate activations (batch×H)
	cs, hs, tanhCs []*Matrix // cell states, hidden states, tanh(c)
	z, zh          *Matrix   // pre-activations x_t·Wx and h_{t−1}·Wh (batch×4H)
	zero           *Matrix   // h_{−1} = c_{−1} = 0 (batch×H); never written
	out            *Matrix   // every hidden state, when ReturnSeq is set
	wx, wh         Matrix    // weight-view headers, avoid a heap allocation per call
}

// cached returns ms[t] reshaped to rows×cols, allocating it when it is
// missing or too small.
func cached(ms []*Matrix, t, rows, cols int) *Matrix {
	ms[t] = ensureMatrix(ms[t], rows, cols)
	return ms[t]
}

// NewLSTM creates an LSTM with Glorot-uniform input weights,
// Glorot-uniform recurrent weights and the conventional forget-gate
// bias of 1.
func NewLSTM(seqLen, in, hidden int, r *prng.Rand) *LSTM {
	if seqLen <= 0 || in <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("nn: invalid LSTM config T=%d D=%d H=%d", seqLen, in, hidden))
	}
	l := &LSTM{
		SeqLen: seqLen, In: in, Hidden: hidden,
		wx: &Param{Name: "lstm.Wx", W: make([]float64, in*4*hidden), Grad: make([]float64, in*4*hidden)},
		wh: &Param{Name: "lstm.Wh", W: make([]float64, hidden*4*hidden), Grad: make([]float64, hidden*4*hidden)},
		b:  &Param{Name: "lstm.b", W: make([]float64, 4*hidden), Grad: make([]float64, 4*hidden)},
	}
	lim := math.Sqrt(6.0 / float64(in+4*hidden))
	for i := range l.wx.W {
		l.wx.W[i] = (2*r.Float64() - 1) * lim
	}
	lim = math.Sqrt(6.0 / float64(hidden+4*hidden))
	for i := range l.wh.W {
		l.wh.W[i] = (2*r.Float64() - 1) * lim
	}
	// Forget-gate bias 1 (slice [H, 2H) in the i,f,g,o packing).
	for j := hidden; j < 2*hidden; j++ {
		l.b.W[j] = 1
	}
	return l
}

// Name identifies the layer.
func (l *LSTM) Name() string {
	return fmt.Sprintf("LSTM(T=%d,D=%d→H=%d)", l.SeqLen, l.In, l.Hidden)
}

// InDim returns SeqLen·In.
func (l *LSTM) InDim() int { return l.SeqLen * l.In }

// OutDim returns the hidden width, or SeqLen·Hidden when ReturnSeq is
// set.
func (l *LSTM) OutDim() int {
	if l.ReturnSeq {
		return l.SeqLen * l.Hidden
	}
	return l.Hidden
}

// Params returns the input, recurrent and bias tensors.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// replica shares the weights; the gradients stay nil until the
// training engine binds them, and the BPTT caches are the replica's
// own.
func (l *LSTM) replica() Layer {
	return &LSTM{
		SeqLen: l.SeqLen, In: l.In, Hidden: l.Hidden, ReturnSeq: l.ReturnSeq,
		wx:          &Param{Name: l.wx.Name, W: l.wx.W},
		wh:          &Param{Name: l.wh.Name, W: l.wh.W},
		b:           &Param{Name: l.b.Name, W: l.b.W},
		scratchEval: true,
	}
}

// ParamCount returns the number of trainable scalars:
// 4H(D + H + 1), matching the Keras formula used by Table 3.
func (l *LSTM) ParamCount() int {
	return 4 * l.Hidden * (l.In + l.Hidden + 1)
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward runs the sequence and returns the final hidden state, or
// every hidden state when ReturnSeq is set. Inference on a network's
// own layer writes no layer field.
func (l *LSTM) Forward(x *Matrix, train bool) *Matrix {
	if x.Cols != l.InDim() {
		panic(fmt.Sprintf("nn: %s got input width %d", l.Name(), x.Cols))
	}
	batch := x.Rows
	H := l.Hidden
	serial := train || l.scratchEval
	s := &l.fwd
	if !serial {
		s = new(lstmSteps)
	}
	if train {
		l.batch = batch
	}
	s.wx = Matrix{Rows: l.In, Cols: 4 * H, Data: l.wx.W}
	s.wh = Matrix{Rows: H, Cols: 4 * H, Data: l.wh.W}
	wx, wh := &s.wx, &s.wh
	if len(s.hs) != l.SeqLen {
		s.xs = make([]*Matrix, l.SeqLen)
		s.is = make([]*Matrix, l.SeqLen)
		s.fs = make([]*Matrix, l.SeqLen)
		s.gs = make([]*Matrix, l.SeqLen)
		s.os = make([]*Matrix, l.SeqLen)
		s.cs = make([]*Matrix, l.SeqLen)
		s.hs = make([]*Matrix, l.SeqLen)
		s.tanhCs = make([]*Matrix, l.SeqLen)
	}
	s.zero = ensureMatrix(s.zero, batch, H)
	s.z = ensureMatrix(s.z, batch, 4*H)
	s.zh = ensureMatrix(s.zh, batch, 4*H)
	z, zh := s.z, s.zh
	h, c := s.zero, s.zero
	for t := 0; t < l.SeqLen; t++ {
		// Slice out timestep t as a batch×In matrix.
		xt := cached(s.xs, t, batch, l.In)
		for n := 0; n < batch; n++ {
			copy(xt.Row(n), x.Row(n)[t*l.In:(t+1)*l.In])
		}
		if serial {
			mulIntoSeq(z, xt, wx)
			mulIntoSeq(zh, h, wh)
		} else {
			MulInto(z, xt, wx)
			MulInto(zh, h, wh)
		}
		for i := range z.Data {
			z.Data[i] += zh.Data[i]
		}
		z.AddRowVector(l.b.W)

		it := cached(s.is, t, batch, H)
		ft := cached(s.fs, t, batch, H)
		gt := cached(s.gs, t, batch, H)
		ot := cached(s.os, t, batch, H)
		cNew := cached(s.cs, t, batch, H)
		hNew := cached(s.hs, t, batch, H)
		tc := cached(s.tanhCs, t, batch, H)
		for n := 0; n < batch; n++ {
			zr := z.Row(n)
			cr := c.Row(n)
			for j := 0; j < H; j++ {
				iv := sigmoid(zr[j])
				fv := sigmoid(zr[H+j])
				gv := math.Tanh(zr[2*H+j])
				ov := sigmoid(zr[3*H+j])
				cv := fv*cr[j] + iv*gv
				tcv := math.Tanh(cv)
				it.Row(n)[j] = iv
				ft.Row(n)[j] = fv
				gt.Row(n)[j] = gv
				ot.Row(n)[j] = ov
				cNew.Row(n)[j] = cv
				tc.Row(n)[j] = tcv
				hNew.Row(n)[j] = ov * tcv
			}
		}
		h, c = hNew, cNew
	}
	if !l.ReturnSeq {
		return h
	}
	s.out = ensureMatrix(s.out, batch, l.SeqLen*H)
	for t, ht := range s.hs {
		for n := 0; n < batch; n++ {
			copy(s.out.Row(n)[t*H:(t+1)*H], ht.Row(n))
		}
	}
	return s.out
}

// Backward backpropagates dL/dh_T through time, accumulating weight
// gradients and returning dL/dinput (batch × SeqLen·In), a scratch
// matrix valid until the next Backward call.
func (l *LSTM) Backward(grad *Matrix) *Matrix {
	s := &l.fwd
	if s.xs == nil {
		panic("nn: LSTM.Backward before Forward(train=true)")
	}
	batch, H := l.batch, l.Hidden
	wx, wh := &s.wx, &s.wh
	l.dx = ensureMatrix(l.dx, batch, l.InDim())
	l.dh = ensureMatrix(l.dh, batch, H) // dL/dh_t, updated as we walk back
	if l.ReturnSeq {
		clear(l.dh.Data)
	} else {
		copy(l.dh.Data, grad.Data)
	}
	l.dc = ensureMatrix(l.dc, batch, H) // dL/dc_t carried across steps
	clear(l.dc.Data)
	l.dcPrev = ensureMatrix(l.dcPrev, batch, H)
	l.dz = ensureMatrix(l.dz, batch, 4*H)
	l.dxt = ensureMatrix(l.dxt, batch, l.In)
	dx, dh, dc, dcPrev, dz := l.dx, l.dh, l.dc, l.dcPrev, l.dz

	for t := l.SeqLen - 1; t >= 0; t-- {
		if l.ReturnSeq {
			// Every timestep's hidden state fed the next layer.
			for n := 0; n < batch; n++ {
				g := grad.Row(n)[t*H : (t+1)*H]
				dhr := dh.Row(n)
				for j := range dhr {
					dhr[j] += g[j]
				}
			}
		}
		it, ft, gt, ot := s.is[t], s.fs[t], s.gs[t], s.os[t]
		tc := s.tanhCs[t]
		cPrev := s.zero
		if t > 0 {
			cPrev = s.cs[t-1]
		}

		for n := 0; n < batch; n++ {
			dhr := dh.Row(n)
			dcr := dc.Row(n)
			dzr := dz.Row(n)
			for j := 0; j < H; j++ {
				ov := ot.Row(n)[j]
				tcv := tc.Row(n)[j]
				iv := it.Row(n)[j]
				fv := ft.Row(n)[j]
				gv := gt.Row(n)[j]

				// h = o∘tanh(c): gradients into o and c.
				do := dhr[j] * tcv
				dcTot := dcr[j] + dhr[j]*ov*(1-tcv*tcv)

				// c = f∘c_prev + i∘g.
				di := dcTot * gv
				df := dcTot * cPrev.Row(n)[j]
				dg := dcTot * iv
				dcPrev.Row(n)[j] = dcTot * fv

				// Through the gate nonlinearities to pre-activations.
				dzr[j] = di * iv * (1 - iv)
				dzr[H+j] = df * fv * (1 - fv)
				dzr[2*H+j] = dg * (1 - gv*gv)
				dzr[3*H+j] = do * ov * (1 - ov)
			}
		}

		// Parameter gradients, accumulated in place. h_{−1} is zero,
		// so step 0 adds nothing to dWh.
		MulTNAcc(l.wx.Grad, s.xs[t], dz)
		if t > 0 {
			MulTNAcc(l.wh.Grad, s.hs[t-1], dz)
		}
		colSumsAcc(l.b.Grad, dz)

		// Input gradient for this timestep.
		dxt := MulNTInto(l.dxt, dz, wx)
		for n := 0; n < batch; n++ {
			copy(dx.Row(n)[t*l.In:(t+1)*l.In], dxt.Row(n))
		}

		// Hidden gradient for the previous step; step 0 has none.
		if t > 0 {
			MulNTInto(dh, dz, wh)
		}
		dc, dcPrev = dcPrev, dc
	}
	return dx
}
