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
// layer's product becomes a sum of weight rows at the set bits, with
// the same addition chain MulInto applies to the equivalent 0.0/1.0
// float rows, so results are bit-identical to the float path. Other
// networks expand the rows to floats first.
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

// bitsMulRange writes rows [lo, hi) of x·W into out (which the caller
// has zeroed): each output row is the sum of the weight rows at the
// input row's set bits, taken in ascending feature order and in pairs
// through addRows2. That is MulInto's chain for the 0.0/1.0 float row —
// one rounding per nonzero k, ascending, and 1·w is exact — so the
// result is bit-identical to the float product.
func bitsMulRange(out *Matrix, x *BitMatrix, w *Matrix, lo, hi int) {
	m := w.Cols
	words := x.Words()
	tail := x.tailMask()
	for i := lo; i < hi; i++ {
		orow := out.Data[i*m : (i+1)*m]
		row := x.Data[i*words : (i+1)*words]
		var pend []float64
		for wi, word := range row {
			if wi == words-1 {
				word &= tail
			}
			for ; word != 0; word &= word - 1 {
				k := wi<<6 | bits.TrailingZeros64(word)
				wrow := w.Data[k*m : (k+1)*m]
				if pend == nil {
					pend = wrow
					continue
				}
				addRows2(orow, pend, wrow)
				pend = nil
			}
		}
		if pend != nil {
			addRows(orow, pend)
		}
	}
}

// bitsMulTNAcc accumulates xᵀ·g into the flat Cols×g.Cols buffer acc —
// a Dense layer's weight gradient for packed input: row k of acc gains
// g's row n for every sample n with bit k set. Samples are taken in
// ascending order, the chain MulTNAcc gives each element for the
// equivalent float input, so the gradient is bit-identical.
func bitsMulTNAcc(acc []float64, x *BitMatrix, g *Matrix) {
	if x.Rows != g.Rows || len(acc) != x.Cols*g.Cols {
		panic(fmt.Sprintf("nn: packed MulTN shape mismatch %d×%d ᵀ· %d×%d into %d", x.Rows, x.Cols, g.Rows, g.Cols, len(acc)))
	}
	m := g.Cols
	words := x.Words()
	tail := x.tailMask()
	for n := 0; n < x.Rows; n++ {
		grow := g.Data[n*m : (n+1)*m]
		row := x.Data[n*words : (n+1)*words]
		for wi, word := range row {
			if wi == words-1 {
				word &= tail
			}
			for ; word != 0; word &= word - 1 {
				k := wi<<6 | bits.TrailingZeros64(word)
				addRows(acc[k*m:(k+1)*m], grow)
			}
		}
	}
}

// addRowsGo is addRows in plain Go.
func addRowsGo(o, b0 []float64) {
	b0 = b0[:len(o)]
	for j := range o {
		o[j] += b0[j]
	}
}

// addRows2Go is addRows2 in plain Go.
func addRows2Go(o, b0, b1 []float64) {
	b0, b1 = b0[:len(o)], b1[:len(o)]
	for j := range o {
		t := o[j] + b0[j]
		o[j] = t + b1[j]
	}
}
