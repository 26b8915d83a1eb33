// Package nn is a from-scratch neural-network library sufficient to
// reproduce the paper's classifiers: multi-layer perceptrons,
// 1-D convolutional networks and LSTMs, trained with mini-batch Adam
// (Kingma–Ba) or SGD against softmax cross-entropy.
//
// The paper used Keras/TensorFlow on a datacenter GPU; this package is
// pure Go (stdlib only) with goroutine-parallel matrix products, which
// is ample for the paper's 128-bit feature vectors. Architectures are
// expressed exactly as in Table 3 — e.g. MLP III is
// Dense(128→1024), ReLU, Dense(1024→1024), ReLU, Dense(1024→2) —
// and parameter counts match the table analytically.
package nn

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float64 matrix. Rows index samples in
// all batch operations.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SetRowBits expands packed {0,1} features into row i: bit j of packed
// (bit j%64 of word j/64, the internal/bits packed-row layout) becomes
// element (i, j) as 0.0 or 1.0 — exactly the floats bits.ToFloats
// would produce, so networks fed through SetRowBits train and predict
// bit-identically to networks fed the float rows. It panics if packed
// holds fewer than Cols bits.
func (m *Matrix) SetRowBits(i int, packed []uint64) {
	if (m.Cols+63)/64 > len(packed) {
		panic(fmt.Sprintf("nn: SetRowBits: %d words hold fewer than %d bits", len(packed), m.Cols))
	}
	row := m.Row(i)
	for j := range row {
		row[j] = float64(packed[j>>6] >> (uint(j) & 63) & 1)
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ensureMatrix reshapes m to r×c, reusing the backing array whenever it
// has capacity, so steady-state training loops stop allocating once the
// largest batch shape has been seen. Contents are unspecified; every
// kernel writing into an ensured matrix overwrites (or zeroes) it.
func ensureMatrix(m *Matrix, r, c int) *Matrix {
	if m != nil && m.Rows == r && m.Cols == c {
		return m
	}
	if m != nil && cap(m.Data) >= r*c {
		m.Rows, m.Cols = r, c
		m.Data = m.Data[:r*c]
		return m
	}
	return NewMatrix(r, c)
}

func zeroFloats(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// parallelRows runs fn over row ranges [lo, hi) on up to GOMAXPROCS
// goroutines. Small matrices run inline to avoid scheduling overhead.
func parallelRows(rows int, work int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	// For tiny workloads the goroutine fan-out costs more than it saves.
	if workers <= 1 || work < 1<<15 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Kernel blocking parameters. mulKBlock rows of B (mulKBlock·Cols
// float64s) form the panel a Mul worker streams repeatedly; at 128
// columns a 256-row panel is 256 KiB — L2-resident on everything we
// target. mulJBlock bounds the B-row panel MulNT reuses across A rows.
const (
	mulKBlock = 256
	mulJBlock = 128
)

// Mul returns A·B. A is n×k, B is k×m.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: Mul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return MulInto(NewMatrix(a.Rows, b.Cols), a, b)
}

// MulInto computes A·B into out (which must be a.Rows×b.Cols) and
// returns it, letting hot loops reuse one output buffer instead of
// allocating per call. The kernel is cache-blocked over k: each worker
// sweeps a mulKBlock-row panel of B across all of its output rows
// before moving to the next panel, so B stays resident even when the
// full weight matrix (e.g. the 8 MiB 1024×1024 layers of MLP III)
// overflows L2. Rows of A equal to zero are skipped entirely, which
// roughly halves the work on the 0/1 difference-bit input layer.
func MulInto(out, a, b *Matrix) *Matrix {
	checkMulInto(out, a, b)
	for i := range out.Data {
		out.Data[i] = 0
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		mulRange(out, a, b, lo, hi)
	})
	return out
}

// mulIntoSeq is MulInto pinned to the calling goroutine. The training
// engine's workers use it so that sharded forward passes never nest a
// goroutine fan-out inside a goroutine (the shards themselves are the
// parallelism). The arithmetic is identical to MulInto: the parallel
// kernel only ever splits work at row granularity.
func mulIntoSeq(out, a, b *Matrix) *Matrix {
	checkMulInto(out, a, b)
	for i := range out.Data {
		out.Data[i] = 0
	}
	mulRange(out, a, b, 0, a.Rows)
	return out
}

func checkMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MulInto shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MulInto output is %d×%d, want %d×%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
}

// mulRange accumulates rows [lo, hi) of A·B into out. Each output row
// is a chain over k in ascending block order, independent of how rows
// are partitioned across workers. On AVX2 hosts the vector axpy kernel
// runs instead; it reproduces the same per-element addition chain (one
// rounding per nonzero k, ascending), so the two paths are
// bit-identical.
func mulRange(out, a, b *Matrix, lo, hi int) {
	if mulRangeAccel(out, a, b, lo, hi) {
		return
	}
	for kb := 0; kb < a.Cols; kb += mulKBlock {
		ke := kb + mulKBlock
		if ke > a.Cols {
			ke = a.Cols
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols+kb : i*a.Cols+ke]
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				k := kb + kk
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// MulTN returns Aᵀ·B. A is n×k (so Aᵀ is k×n), B is n×m.
func MulTN(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	MulTNAcc(out.Data, a, b)
	return out
}

// MulTNAcc accumulates Aᵀ·B into the flat k×m buffer acc — the shape a
// Dense weight gradient already has, so backward passes add the
// transposed-gradient product straight into Param.Grad without a
// temporary. Parallelism partitions the *output* rows: every element's
// accumulation chain runs over the n samples in ascending order
// regardless of GOMAXPROCS or partition, so the result is bitwise
// identical at any worker count. (The previous implementation merged
// per-worker partial matrices in a GOMAXPROCS-dependent grouping, which
// made trained weights machine-dependent.)
func MulTNAcc(acc []float64, a, b *Matrix) {
	checkMulTN(acc, a, b)
	parallelRows(a.Cols, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		mulTNAccRange(acc, a, b, lo, hi)
	})
}

// mulTNAccSeq is MulTNAcc pinned to the calling goroutine; see
// mulIntoSeq for why the training engine's workers need it.
func mulTNAccSeq(acc []float64, a, b *Matrix) {
	checkMulTN(acc, a, b)
	mulTNAccRange(acc, a, b, 0, a.Cols)
}

func checkMulTN(acc []float64, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: MulTN shape mismatch %d×%d ᵀ· %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if len(acc) != a.Cols*b.Cols {
		panic(fmt.Sprintf("nn: MulTN accumulator has %d elements, want %d×%d", len(acc), a.Cols, b.Cols))
	}
}

// mulTNAccRange accumulates output rows [lo, hi) of Aᵀ·B into acc,
// sample-outer so each accumulator element sees samples in ascending
// order. Rows of the accumulator stay hot across the sweep and the
// zero-skip on A entries keeps the 0/1 difference-bit inputs cheap.
func mulTNAccRange(acc []float64, a, b *Matrix, lo, hi int) {
	if mulTNAccRangeAccel(acc, a, b, lo, hi) {
		return
	}
	for n := 0; n < a.Rows; n++ {
		arow := a.Data[n*a.Cols : (n+1)*a.Cols]
		brow := b.Data[n*b.Cols : (n+1)*b.Cols]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := acc[i*b.Cols : (i+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulNT returns A·Bᵀ. A is n×k, B is m×k.
func MulNT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MulNT shape mismatch %d×%d · %d×%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return MulNTInto(NewMatrix(a.Rows, b.Rows), a, b)
}

// MulNTInto computes A·Bᵀ into out (which must be a.Rows×b.Rows) and
// returns it. B is row-major, so its rows are already the packed
// columns of Bᵀ; the kernel blocks over those rows (mulJBlock at a
// time) so the panel being dotted stays cache-resident across every
// row of A, and unrolls the dot product four-wide.
func MulNTInto(out, a, b *Matrix) *Matrix {
	checkMulNTInto(out, a, b)
	parallelRows(a.Rows, a.Rows*a.Cols*b.Rows, func(lo, hi int) {
		mulNTRange(out, a, b, lo, hi)
	})
	return out
}

// mulNTIntoSeq is MulNTInto pinned to the calling goroutine; see
// mulIntoSeq for why the training engine's workers need it.
func mulNTIntoSeq(out, a, b *Matrix) *Matrix {
	checkMulNTInto(out, a, b)
	mulNTRange(out, a, b, 0, a.Rows)
	return out
}

func checkMulNTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MulNTInto shape mismatch %d×%d · %d×%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MulNTInto output is %d×%d, want %d×%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
}

// mulNTRange computes rows [lo, hi) of A·Bᵀ into out. Every element is
// an independent dot product, so any row partition is bitwise
// identical. On AVX2 hosts the 2×2 register-tiled kernel runs instead;
// its vector lanes are exactly dotNT's four stride-4 partials, so the
// two paths are bit-identical.
func mulNTRange(out, a, b *Matrix, lo, hi int) {
	if mulNTRangeAccel(out, a, b, lo, hi) {
		return
	}
	k := a.Cols
	for jb := 0; jb < b.Rows; jb += mulJBlock {
		je := jb + mulJBlock
		if je > b.Rows {
			je = b.Rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j := jb; j < je; j++ {
				orow[j] = dotNT(arow, b.Data[j*k:(j+1)*k])
			}
		}
	}
}

// dotNT is the scalar reference dot product every MulNT path must
// reproduce bit for bit: four stride-4 partial sums over the aligned
// prefix, combined left to right, then a sequential tail.
func dotNT(arow, brow []float64) float64 {
	k := len(arow)
	k4 := k &^ 3
	var s0, s1, s2, s3 float64
	for p := 0; p < k4; p += 4 {
		s0 += arow[p] * brow[p]
		s1 += arow[p+1] * brow[p+1]
		s2 += arow[p+2] * brow[p+2]
		s3 += arow[p+3] * brow[p+3]
	}
	s := s0 + s1 + s2 + s3
	for p := k4; p < k; p++ {
		s += arow[p] * brow[p]
	}
	return s
}

// AddRowVector adds vector v (length Cols) to every row of m in place.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("nn: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ColSums returns the per-column sums of m.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// colSumsAcc accumulates the per-column sums of m into dst (length
// Cols), the allocation-free form of ColSums used by backward passes to
// add bias gradients straight into Param.Grad. The accumulation chain
// over rows is identical to ColSums.
func colSumsAcc(dst []float64, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("nn: colSumsAcc length %d != cols %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Scale multiplies every element in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Equalish reports whether two matrices have the same shape and agree
// elementwise within tol.
func Equalish(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d > tol || d < -tol {
			return false
		}
	}
	return true
}
