package nn

import (
	"fmt"
	"math/bits"
)

// BitMatrix is a batch of packed {0,1} feature rows: Rows samples of
// Cols features, Words() uint64 words per row, feature j of row i at
// bit j%64 of word i*Words()+j/64 — the internal/bits packed-row layout
// that core.Dataset stores. Bits past Cols in a row's last word are
// ignored by every consumer.
//
// A network whose first layer is Dense predicts and trains from packed
// rows directly (see Dense.forwardBits and Network.FitBits): the first
// layer's output becomes the bias plus a sum of weight rows at the set
// bits, and its weight gradient a sum of output-gradient rows at each
// feature's samples, both summed in registers a tile of columns at a
// time with the addition chains MulInto, AddRowVector and MulTNAcc
// apply to the equivalent 0.0/1.0 float rows, so results are
// bit-identical to the float path. Other networks expand the rows to
// floats first.
type BitMatrix struct {
	Rows, Cols int
	Data       []uint64
}

// Words returns the number of uint64 words backing each row.
func (b *BitMatrix) Words() int { return (b.Cols + 63) / 64 }

// Row returns a view (not a copy) of row i's words.
func (b *BitMatrix) Row(i int) []uint64 {
	w := b.Words()
	return b.Data[i*w : (i+1)*w : (i+1)*w]
}

// tailMask masks the bits of a row's last word that hold features.
func (b *BitMatrix) tailMask() uint64 {
	return ^uint64(0) >> (uint(-b.Cols) & 63)
}

// check panics unless Data holds exactly Rows rows.
func (b *BitMatrix) check() {
	if b.Rows < 0 || b.Cols < 0 || len(b.Data) != b.Rows*b.Words() {
		panic(fmt.Sprintf("nn: BitMatrix %d×%d has %d words, want %d", b.Rows, b.Cols, len(b.Data), b.Rows*b.Words()))
	}
}

// ensureBits reshapes m to r rows of c features, reusing its backing
// array whenever it has capacity.
func ensureBits(m *BitMatrix, r, c int) *BitMatrix {
	n := r * ((c + 63) / 64)
	if m != nil && cap(m.Data) >= n {
		m.Rows, m.Cols, m.Data = r, c, m.Data[:n]
		return m
	}
	return &BitMatrix{Rows: r, Cols: c, Data: make([]uint64, n)}
}

// expand writes the rows as 0.0/1.0 floats into out (Rows×Cols).
func (b *BitMatrix) expand(out *Matrix) *Matrix {
	for i := 0; i < b.Rows; i++ {
		out.SetRowBits(i, b.Row(i))
	}
	return out
}

// bitsMulRange writes rows [lo, hi) of x·W + b into out: each output
// row is the bias plus the sum of the weight rows at the input row's
// set bits. Every element is the chain ((+0 + W[k1]) + W[k2]) + … + b,
// set bits ascending, that MulInto and AddRowVector give the 0.0/1.0
// float row — one rounding per nonzero k, and 1·w is exact — so the
// result is bit-identical to the float product. bitsMulAccel computes
// the 4-aligned column prefix in registers; the rest, and all of it
// when AVX2 is off, runs the chain in plain Go.
func bitsMulRange(out *Matrix, x *BitMatrix, w *Matrix, b []float64, lo, hi int) {
	m := w.Cols
	c0 := bitsMulAccel(out, x, w, b, lo, hi)
	if c0 == m {
		return
	}
	words := x.Words()
	tail := x.tailMask()
	for i := lo; i < hi; i++ {
		orow := out.Data[i*m+c0 : (i+1)*m]
		clear(orow)
		for wi, word := range x.Data[i*words : (i+1)*words] {
			if wi == words-1 {
				word &= tail
			}
			for ; word != 0; word &= word - 1 {
				k := wi<<6 | bits.TrailingZeros64(word)
				addRowsGo(orow, w.Data[k*m+c0:(k+1)*m])
			}
		}
		addRowsGo(orow, b[c0:])
	}
}

// bitsMulParallel is bitsMulRange over every row of x, split across
// goroutines as MulInto splits its rows. It is a function of its own
// so that the closure it builds stays off the training path.
func bitsMulParallel(out *Matrix, x *BitMatrix, w *Matrix, b []float64) {
	parallelRows(x.Rows, x.Rows*w.Rows*w.Cols, func(lo, hi int) {
		bitsMulRange(out, x, w, b, lo, hi)
	})
}

// bitsMulTNAcc accumulates xᵀ·g into the flat Cols×g.Cols buffer acc —
// a Dense layer's weight gradient for packed input: row k of acc gains
// g's row n for every sample n with bit k set. Each element takes its
// samples in ascending order, continuing from the value acc holds: the
// chain MulTNAcc gives it for the equivalent float input, so the
// gradient is bit-identical. bitsMulTNAccel computes the 4-aligned
// column prefix with the samples transposed into per-feature masks;
// the rest, and all of it when AVX2 is off, runs sample by sample in
// plain Go.
func bitsMulTNAcc(acc []float64, x *BitMatrix, g *Matrix) {
	if x.Rows != g.Rows || len(acc) != x.Cols*g.Cols {
		panic(fmt.Sprintf("nn: packed MulTN shape mismatch %d×%d ᵀ· %d×%d into %d", x.Rows, x.Cols, g.Rows, g.Cols, len(acc)))
	}
	m := g.Cols
	c0 := bitsMulTNAccel(acc, x, g)
	if c0 == m {
		return
	}
	words := x.Words()
	tail := x.tailMask()
	for n := 0; n < x.Rows; n++ {
		grow := g.Data[n*m+c0 : (n+1)*m]
		for wi, word := range x.Data[n*words : (n+1)*words] {
			if wi == words-1 {
				word &= tail
			}
			for ; word != 0; word &= word - 1 {
				k := wi<<6 | bits.TrailingZeros64(word)
				addRowsGo(acc[k*m+c0:(k+1)*m], grow)
			}
		}
	}
}

// addRowsGo adds b0 into o (o[j] += b0[j]), one rounding per element:
// the plain-Go reference chain of both packed kernels.
func addRowsGo(o, b0 []float64) {
	b0 = b0[:len(o)]
	for j := range o {
		o[j] += b0[j]
	}
}
