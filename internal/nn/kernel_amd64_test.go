//go:build amd64

package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// forceScalarMul runs fn with the AVX2 kernels disabled.
func forceScalarMul(fn func()) {
	saved := useMulAVX2
	useMulAVX2 = false
	defer func() { useMulAVX2 = saved }()
	fn()
}

// TestMulNTAVX2BitIdentical: the register-tiled AVX2 MulNT kernel must
// reproduce the scalar kernel to the last bit at ragged shapes (odd
// rows, odd columns, k not a multiple of 4 or 8, k < 4).
func TestMulNTAVX2BitIdentical(t *testing.T) {
	if !useMulAVX2 {
		t.Skip("no AVX2")
	}
	r := prng.New(0x51ce)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 2}, {3, 4, 3}, {5, 7, 9}, {4, 8, 4}, {7, 129, 131}, {8, 1024, 16}}
	for trial := 0; trial < 12; trial++ {
		shapes = append(shapes, [3]int{1 + r.Intn(9), 1 + r.Intn(140), 1 + r.Intn(140)})
	}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		a := randMatrix(r, n, k)
		b := randMatrix(r, m, k)
		got := MulNT(a, b)
		var want *Matrix
		forceScalarMul(func() { want = MulNT(a, b) })
		matricesBitIdentical(t, "MulNT", got, want)
	}
}

// TestMulTNAVX2BitIdentical: the vector axpy MulTN kernel — the
// backward pass's weight-gradient product — must match the scalar
// zero-skip kernel to the last bit, including when the activation
// gradient A is ReLU-sparse (odd runs of zeros in a *column* exercise
// the strided pair/single split) and when n crosses the panel size.
func TestMulTNAVX2BitIdentical(t *testing.T) {
	if !useMulAVX2 {
		t.Skip("no AVX2")
	}
	r := prng.New(0x51d0)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 2}, {3, 5, 7}, {300, 4, 6}, {257, 5, 131}, {1024, 2, 9}}
	for trial := 0; trial < 12; trial++ {
		shapes = append(shapes, [3]int{1 + r.Intn(300), 1 + r.Intn(9), 1 + r.Intn(140)})
	}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		a := randMatrix(r, n, k)
		for i := range a.Data {
			if r.Intn(2) == 0 {
				a.Data[i] = 0
			}
		}
		b := randMatrix(r, n, m)
		got := MulTN(a, b)
		var want *Matrix
		forceScalarMul(func() { want = MulTN(a, b) })
		matricesBitIdentical(t, "MulTN", got, want)
	}
}

// TestMulTNAccAVX2Accumulates: MulTNAcc adds into a live gradient
// buffer; the accel must preserve the accumulate-in-place contract
// bit for bit, not overwrite.
func TestMulTNAccAVX2Accumulates(t *testing.T) {
	if !useMulAVX2 {
		t.Skip("no AVX2")
	}
	r := prng.New(0x51d1)
	a := randMatrix(r, 37, 5)
	b := randMatrix(r, 37, 11)
	got := randMatrix(r, 5, 11)
	want := got.Clone()
	MulTNAcc(got.Data, a, b)
	forceScalarMul(func() { MulTNAcc(want.Data, a, b) })
	matricesBitIdentical(t, "MulTNAcc", got, want)
}

// TestMulAVX2BitIdentical: the vector axpy MulInto kernel, and the
// masked-chain kernel of products narrower than one vector (1–3 output
// columns, the classifier head's 128→2), must match the scalar
// zero-skip kernel to the last bit, including when A is sparse (odd
// runs of zeros exercise the pair/single split), when rows are
// ReLU-sparse, when k crosses the mulKBlock panel (300), and when A and
// B hold ±0, NaN, ±Inf and subnormals. An Inf weight at a zero input is
// where adding 0·w (NaN) would differ from skipping the term. The
// head's backward products get the same treatment in
// checkNarrowBackward.
func TestMulAVX2BitIdentical(t *testing.T) {
	if !useMulAVX2 {
		t.Skip("no AVX2")
	}
	r := prng.New(0x51cf)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 2}, {3, 5, 7}, {4, 300, 6}, {5, 257, 131}, {2, 1024, 9},
		{1, 128, 1}, {7, 128, 2}, {9, 128, 3}, {4, 300, 1}, {13, 300, 2}, {6, 300, 3}, {64, 128, 2},
		{131, 128, 2}, {257, 300, 3}} // the last two are large enough for MulInto to split rows
	for trial := 0; trial < 12; trial++ {
		shapes = append(shapes, [3]int{1 + r.Intn(9), 1 + r.Intn(300), 1 + r.Intn(140)})
		shapes = append(shapes, [3]int{1 + r.Intn(9), 1 + r.Intn(300), 1 + r.Intn(3)})
	}
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	specials := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), sub, -sub, 3 * sub, math.MaxFloat64}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		a := randMatrix(r, n, k)
		for i := range a.Data {
			if r.Intn(2) == 0 {
				a.Data[i] = 0
			}
		}
		b := randMatrix(r, k, m)
		got := Mul(a, b)
		var want *Matrix
		forceScalarMul(func() { want = Mul(a, b) })
		matricesBitIdentical(t, "Mul", got, want)

		// ReLU-sparse rows (a hidden layer's output: exact +0 wherever
		// the pre-activation was not positive) salted with special
		// values in A and B. Column 0 of A is ±0 in every row and row 0
		// of B starts with ±Inf, so every output row meets a zero input
		// times an infinite weight.
		for i := range a.Data {
			a.Data[i] = math.Max(r.NormFloat64(), 0)
			if r.Intn(8) == 0 {
				a.Data[i] = specials[r.Intn(len(specials))]
			}
		}
		for i := range b.Data {
			if r.Intn(8) == 0 {
				b.Data[i] = specials[r.Intn(len(specials))]
			}
		}
		for i := 0; i < n; i++ {
			a.Data[i*k] = []float64{0, negZero}[i%2]
		}
		b.Data[0] = []float64{math.Inf(1), math.Inf(-1)}[r.Intn(2)]
		got = Mul(a, b)
		forceScalarMul(func() { want = Mul(a, b) })
		matricesSameValues(t, "Mul (special values)", got, want)
	}
	checkNarrowBackward(t, r, specials)
}

// checkNarrowBackward compares the narrow AVX2 kernels of a classifier
// head's backward pass with the scalar kernels: MulTNAcc with 1–3
// output columns (dW = hᵀ·g, h ReLU-sparse) and MulNT with an inner
// dimension of 1–3 (dx = g·Wᵀ). Shapes include one sample or row, 13
// and 130 hidden units (not multiples of 4), and sizes large enough
// for MulTNAcc and MulNTInto to split rows across goroutines. The
// MulTNAcc accumulator starts with −0 in some entries, and one column
// of h is ±0 in every sample, so that row of the accumulator must stay
// exactly as it was: −0 where it was −0.
func checkNarrowBackward(t *testing.T, r *prng.Rand, specials []float64) {
	t.Helper()
	negZero := math.Copysign(0, -1)
	shapes := [][3]int{{1, 1, 1}, {1, 128, 2}, {16, 128, 2}, {16, 13, 3}, {5, 7, 1}, {16, 130, 2},
		{1024, 128, 2}, {4096, 128, 3}, {2048, 13, 1}}
	for trial := 0; trial < 12; trial++ {
		shapes = append(shapes, [3]int{1 + r.Intn(40), 1 + r.Intn(140), 1 + r.Intn(3)})
	}
	for _, sh := range shapes {
		n, hidden, classes := sh[0], sh[1], sh[2]
		for _, salted := range []bool{false, true} {
			h := randMatrix(r, n, hidden)
			g := randMatrix(r, n, classes)
			w := randMatrix(r, hidden, classes)
			for i := range h.Data {
				h.Data[i] = math.Max(h.Data[i], 0)
			}
			if salted {
				for _, m := range []*Matrix{h, g, w} {
					for i := range m.Data {
						if r.Intn(8) == 0 {
							m.Data[i] = specials[r.Intn(len(specials))]
						}
					}
				}
			}
			zeroCol := r.Intn(hidden)
			for s := 0; s < n; s++ {
				h.Data[s*hidden+zeroCol] = []float64{0, negZero}[s%2]
			}
			acc := randMatrix(r, hidden, classes)
			for i := range acc.Data {
				if r.Intn(3) == 0 {
					acc.Data[i] = negZero
				}
			}
			for j := 0; j < classes; j++ {
				acc.Data[zeroCol*classes+j] = negZero
			}
			got, want := acc.Clone(), acc.Clone()
			MulTNAcc(got.Data, h, g)
			forceScalarMul(func() { MulTNAcc(want.Data, h, g) })
			what := fmt.Sprintf("MulTNAcc %d×%dᵀ·%d×%d salted=%v", n, hidden, n, classes, salted)
			if salted {
				matricesSameValues(t, what, got, want)
			} else {
				matricesBitIdentical(t, what, got, want)
			}
			for j := 0; j < classes; j++ {
				if b := math.Float64bits(got.Data[zeroCol*classes+j]); b != math.Float64bits(negZero) {
					t.Fatalf("%s: accumulator row %d of an all-zero column became %x, want −0", what, zeroCol, b)
				}
			}

			gotNT := MulNT(g, w)
			var wantNT *Matrix
			forceScalarMul(func() { wantNT = MulNT(g, w) })
			what = fmt.Sprintf("MulNT %d×%d·%d×%dᵀ salted=%v", n, classes, hidden, classes, salted)
			if salted {
				matricesSameValues(t, what, gotNT, wantNT)
			} else {
				matricesBitIdentical(t, what, gotNT, wantNT)
			}
		}
	}
}

// matricesSameValues is matricesBitIdentical except that any NaN
// matches any NaN: IEEE 754 leaves the payload of an operation on two
// NaNs to the implementation, and the compiled scalar kernel and the
// vector kernels may order such operands differently. Everything else,
// the sign of zero included, must match bit for bit.
func matricesSameValues(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %x, scalar %x", what, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}
