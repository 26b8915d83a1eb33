package nn

import (
	"testing"

	"repro/internal/prng"
)

func randMatrix(r *prng.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// naiveMul is the reference O(n^3) triple loop.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestMulAgainstNaive(t *testing.T) {
	r := prng.New(1)
	for trial := 0; trial < 20; trial++ {
		n, k, m := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		a := randMatrix(r, n, k)
		b := randMatrix(r, k, m)
		if !Equalish(Mul(a, b), naiveMul(a, b), 1e-9) {
			t.Fatalf("Mul mismatch at %dx%dx%d", n, k, m)
		}
	}
}

func TestMulLargeParallelPath(t *testing.T) {
	// Big enough to trigger the goroutine fan-out.
	r := prng.New(2)
	a := randMatrix(r, 300, 64)
	b := randMatrix(r, 64, 50)
	if !Equalish(Mul(a, b), naiveMul(a, b), 1e-9) {
		t.Fatal("parallel Mul disagrees with naive")
	}
}

func TestMulTN(t *testing.T) {
	r := prng.New(3)
	for trial := 0; trial < 10; trial++ {
		n, k, m := 1+r.Intn(30), 1+r.Intn(30), 1+r.Intn(30)
		a := randMatrix(r, n, k)
		b := randMatrix(r, n, m)
		want := naiveMul(transpose(a), b)
		if !Equalish(MulTN(a, b), want, 1e-9) {
			t.Fatalf("MulTN mismatch at %d %d %d", n, k, m)
		}
	}
	// Parallel path.
	a := randMatrix(r, 400, 32)
	b := randMatrix(r, 400, 40)
	if !Equalish(MulTN(a, b), naiveMul(transpose(a), b), 1e-9) {
		t.Fatal("parallel MulTN disagrees with naive")
	}
}

func TestMulNT(t *testing.T) {
	r := prng.New(4)
	for trial := 0; trial < 10; trial++ {
		n, k, m := 1+r.Intn(30), 1+r.Intn(30), 1+r.Intn(30)
		a := randMatrix(r, n, k)
		b := randMatrix(r, m, k)
		want := naiveMul(a, transpose(b))
		if !Equalish(MulNT(a, b), want, 1e-9) {
			t.Fatalf("MulNT mismatch at %d %d %d", n, k, m)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Mul(NewMatrix(2, 3), NewMatrix(4, 2)) },
		func() { MulTN(NewMatrix(2, 3), NewMatrix(3, 2)) },
		func() { MulNT(NewMatrix(2, 3), NewMatrix(2, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("shape mismatch accepted")
				}
			}()
			f()
		}()
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	m.Set(0, 1, 9)
	if m.Row(0)[1] != 9 {
		t.Fatal("Set/Row inconsistent")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("Clone is shallow")
	}
	if got := FromRows(nil); got.Rows != 0 {
		t.Fatal("FromRows(nil) not empty")
	}
}

func TestSetRowBits(t *testing.T) {
	// 70 columns spans two packed words; bit i of the row lives at bit
	// i%64 of word i/64.
	m := NewMatrix(2, 70)
	packed := []uint64{0xdeadbeefcafef00d, 0x2a}
	m.SetRowBits(1, packed)
	for j := 0; j < 70; j++ {
		want := float64(packed[j/64] >> (j % 64) & 1)
		if got := m.At(1, j); got != want {
			t.Fatalf("bit %d expanded to %v, want %v", j, got, want)
		}
	}
	for j := 0; j < 70; j++ {
		if m.At(0, j) != 0 {
			t.Fatal("SetRowBits touched another row")
		}
	}
	// Extra packed words beyond the column count are ignored.
	m.SetRowBits(0, []uint64{^uint64(0), ^uint64(0), ^uint64(0)})
	if m.At(0, 69) != 1 {
		t.Fatal("SetRowBits with extra words lost bits")
	}
}

func TestSetRowBitsTooFewWordsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetRowBits accepted a packed slice shorter than the row")
		}
	}()
	NewMatrix(1, 70).SetRowBits(0, []uint64{1})
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows accepted")
		}
	}()
	FromRows([][]float64{{1}, {1, 2}})
}

func TestAddRowVectorColSumsScale(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowVector([]float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVector result %v", m.Data)
	}
	s := m.ColSums()
	if s[0] != 11+13 || s[1] != 22+24 {
		t.Fatalf("ColSums = %v", s)
	}
	m.Scale(0.5)
	if m.At(0, 0) != 5.5 {
		t.Fatalf("Scale result %v", m.At(0, 0))
	}
}

func TestEqualish(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2.0000001}})
	if !Equalish(a, b, 1e-3) {
		t.Fatal("close matrices not equalish")
	}
	if Equalish(a, b, 1e-9) {
		t.Fatal("tolerance ignored")
	}
	if Equalish(a, NewMatrix(2, 1), 1) {
		t.Fatal("shape mismatch equalish")
	}
}

func BenchmarkMul128x1024(b *testing.B) {
	r := prng.New(1)
	a := randMatrix(r, 128, 128)
	w := randMatrix(r, 128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, w)
	}
}

func TestMulBlockedSpansKPanels(t *testing.T) {
	// k > mulKBlock exercises the panel loop of the blocked kernel,
	// including a ragged final panel.
	r := prng.New(7)
	for _, k := range []int{mulKBlock - 1, mulKBlock, mulKBlock + 1, 2*mulKBlock + 37} {
		a := randMatrix(r, 9, k)
		b := randMatrix(r, k, 23)
		if !Equalish(Mul(a, b), naiveMul(a, b), 1e-8) {
			t.Fatalf("blocked Mul mismatch at k=%d", k)
		}
	}
}

func TestMulNTBlockedSpansJPanels(t *testing.T) {
	// b.Rows > mulJBlock exercises the panel loop; odd k exercises the
	// unrolled dot product's remainder.
	r := prng.New(8)
	for _, m := range []int{mulJBlock - 1, mulJBlock, mulJBlock + 1, 2*mulJBlock + 5} {
		a := randMatrix(r, 7, 33)
		b := randMatrix(r, m, 33)
		if !Equalish(MulNT(a, b), naiveMul(a, transpose(b)), 1e-9) {
			t.Fatalf("blocked MulNT mismatch at m=%d", m)
		}
	}
}

func TestMulIntoReusesBuffer(t *testing.T) {
	r := prng.New(9)
	a := randMatrix(r, 5, 12)
	b := randMatrix(r, 12, 7)
	out := NewMatrix(5, 7)
	for i := range out.Data {
		out.Data[i] = 99 // stale contents must be overwritten, not accumulated
	}
	if got := MulInto(out, a, b); got != out {
		t.Fatal("MulInto did not return its destination")
	}
	if !Equalish(out, naiveMul(a, b), 1e-9) {
		t.Fatal("MulInto result polluted by stale buffer contents")
	}
	// Second use of the same buffer with different operands.
	a2 := randMatrix(r, 5, 12)
	MulInto(out, a2, b)
	if !Equalish(out, naiveMul(a2, b), 1e-9) {
		t.Fatal("MulInto buffer reuse produced a wrong product")
	}
}

func TestMulIntoShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { MulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2)) },
		func() { MulInto(NewMatrix(3, 2), NewMatrix(2, 3), NewMatrix(3, 2)) },
		func() { MulNTInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 4)) },
		func() { MulNTInto(NewMatrix(2, 5), NewMatrix(2, 3), NewMatrix(4, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("shape mismatch accepted")
				}
			}()
			f()
		}()
	}
}
