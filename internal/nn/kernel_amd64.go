//go:build amd64

package nn

import (
	"repro/internal/bits"
	"repro/internal/cpu"
)

// useMulAVX2 gates the AVX2 matrix micro-kernels. It is a variable so
// tests can force the scalar path and compare bit for bit.
var useMulAVX2 = cpu.HasAVX2()

//go:noescape
func dotNT4x4AVX2(a0, a1, b0, b1 *float64, k4 int, s *[4][4]float64)

//go:noescape
func axpy2AVX2(o, b0, b1 *float64, a0, a1 float64, m4 int)

//go:noescape
func axpy1AVX2(o, b0 *float64, a0 float64, m4 int)

//go:noescape
func bitsFwd16AVX2(o *float64, x *uint64, w, b *float64, rows, words int, tail uint64, m int)

//go:noescape
func bitsFwd1AVX2(o *float64, x *uint64, w, b *float64, rows, words int, tail uint64, m int)

//go:noescape
func bitsGrad16AVX2(acc, grad *float64, masks *[64]uint64, nfeat, m int)

//go:noescape
func bitsGrad1AVX2(acc, grad *float64, masks *[64]uint64, nfeat, m int)

//go:noescape
func mulNarrowAVX2(o, a, b *float64, n, k, m int, mask *[4]int64)

//go:noescape
func mulTNNarrowAVX2(acc, a, b *float64, n, rows, astride, m int, mask *[4]int64)

//go:noescape
func mulNTNarrowAVX2(o, a, b *float64, n, k, j4, ostride int)

//go:noescape
func foldShardsAVX2(p *[fitShards]*float64, n4 int)

//go:noescape
func adamAVX2(w, grad, m, v *float64, n4 int, k *[8]float64)

// mulNTRangeAccel computes rows [lo, hi) of A·Bᵀ with the 2×2
// register-tiled AVX2 dot kernel. Each output element's value is
// assembled exactly as the scalar path's: four stride-4 partials
// (the kernel's vector lanes) combined left to right, then the
// sequential scalar tail — so the result is bit-identical and worker
// partitions stay invisible. Odd trailing rows/columns of a tile fall
// back to the scalar per-element dot, which is the same arithmetic.
// An inner dimension of 1–3 (the input gradient behind a classifier
// head) has no 4-aligned prefix and takes mulNTNarrowRange instead;
// k = 0, where every element is +0, stays on the scalar path.
func mulNTRangeAccel(out, a, b *Matrix, lo, hi int) bool {
	k := a.Cols
	switch {
	case !useMulAVX2 || k == 0:
		return false
	case k < 4:
		mulNTNarrowRange(out, a, b, lo, hi)
		return true
	}
	k4 := k &^ 3
	var s [4][4]float64
	for jb := 0; jb < b.Rows; jb += mulJBlock {
		je := jb + mulJBlock
		if je > b.Rows {
			je = b.Rows
		}
		i := lo
		for ; i+1 < hi; i += 2 {
			a0 := a.Data[i*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k]
			o0 := out.Data[i*out.Cols : (i+1)*out.Cols]
			o1 := out.Data[(i+1)*out.Cols : (i+2)*out.Cols]
			j := jb
			for ; j+1 < je; j += 2 {
				b0 := b.Data[j*k : (j+1)*k]
				b1 := b.Data[(j+1)*k : (j+2)*k]
				dotNT4x4AVX2(&a0[0], &a1[0], &b0[0], &b1[0], k4, &s)
				o0[j] = finishDotNT(a0, b0, &s[0], k4)
				o0[j+1] = finishDotNT(a0, b1, &s[1], k4)
				o1[j] = finishDotNT(a1, b0, &s[2], k4)
				o1[j+1] = finishDotNT(a1, b1, &s[3], k4)
			}
			for ; j < je; j++ {
				brow := b.Data[j*k : (j+1)*k]
				o0[j] = dotNT(a0, brow)
				o1[j] = dotNT(a1, brow)
			}
		}
		if i < hi {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j := jb; j < je; j++ {
				orow[j] = dotNT(arow, b.Data[j*k:(j+1)*k])
			}
		}
	}
	return true
}

// mulNTNarrowRange computes rows [lo, hi) of A·Bᵀ for an inner
// dimension k of 1–3. With no 4-aligned prefix every element is the
// chain ((+0 + a0·b0) + a1·b1) + a2·b2 that finishDotNT computes from
// zero partials; mulNTNarrowAVX2 runs it with four output columns per
// register, and the last cols mod 4 columns run dotNT itself.
func mulNTNarrowRange(out, a, b *Matrix, lo, hi int) {
	k, cols := a.Cols, b.Rows
	if lo >= hi {
		return
	}
	j4 := cols &^ 3
	if j4 > 0 {
		mulNTNarrowAVX2(&out.Data[lo*cols], &a.Data[lo*k], &b.Data[0], hi-lo, k, j4, cols)
	}
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		for j := j4; j < cols; j++ {
			out.Data[i*cols+j] = dotNT(arow, b.Data[j*k:(j+1)*k])
		}
	}
}

// finishDotNT folds the kernel's four stride-4 partials and the scalar
// tail into the final dot product, in the scalar path's exact order.
func finishDotNT(arow, brow []float64, s *[4]float64, k4 int) float64 {
	v := s[0] + s[1] + s[2] + s[3]
	for p := k4; p < len(arow); p++ {
		v += arow[p] * brow[p]
	}
	return v
}

// mulTNAccRangeAccel accumulates output rows [lo, hi) of Aᵀ·B with the
// vector axpy kernels — the backward pass's weight-gradient product.
// Output row i accumulates b's sample rows weighted by column i of a;
// the scalar path takes the nonzero weights in ascending sample order
// with one rounding each, so the accel scans the (strided) column for
// nonzeros and applies them in pairs through axpy2AVX2, whose two
// separate roundings per element reproduce that chain exactly. Sample
// rows are walked in mulKBlock panels so the reused b panel stays
// cache-resident across all output rows; panel order preserves the
// global ascending-sample chain. ReLU-sparse activation gradients make
// the zero-skip the common case, exactly as in mulRangeAccel. A product
// narrower than one vector (m < 4, a classifier head's weight
// gradient) takes mulTNNarrowRange instead.
func mulTNAccRangeAccel(acc []float64, a, b *Matrix, lo, hi int) bool {
	if !useMulAVX2 {
		return false
	}
	m := b.Cols
	if m < 4 {
		mulTNNarrowRange(acc, a, b, lo, hi)
		return true
	}
	m4 := m &^ 3
	stride := a.Cols
	for nb := 0; nb < a.Rows; nb += mulKBlock {
		ne := nb + mulKBlock
		if ne > a.Rows {
			ne = a.Rows
		}
		for i := lo; i < hi; i++ {
			orow := acc[i*m : (i+1)*m]
			n := nb
			for {
				for n < ne && a.Data[n*stride+i] == 0 {
					n++
				}
				if n == ne {
					break
				}
				av0 := a.Data[n*stride+i]
				b0 := b.Data[n*m : (n+1)*m]
				n++
				for n < ne && a.Data[n*stride+i] == 0 {
					n++
				}
				if n == ne {
					if m4 > 0 {
						axpy1AVX2(&orow[0], &b0[0], av0, m4)
					}
					for j := m4; j < m; j++ {
						orow[j] += av0 * b0[j]
					}
					break
				}
				av1 := a.Data[n*stride+i]
				b1 := b.Data[n*m : (n+1)*m]
				n++
				if m4 > 0 {
					axpy2AVX2(&orow[0], &b0[0], &b1[0], av0, av1, m4)
				}
				for j := m4; j < m; j++ {
					t := orow[j] + av0*b0[j]
					orow[j] = t + av1*b1[j]
				}
			}
		}
	}
	return true
}

// mulTNNarrowRange accumulates output rows [lo, hi) of Aᵀ·B for B with
// fewer than 4 columns. There the axpy kernels get no full vector, and
// the column scan's zero test branches on ReLU-sparse data. Instead
// mulTNNarrowAVX2 keeps four output rows in registers across all
// samples, ascending, and skips a ±0 entry of A with a blend that
// keeps the accumulator: bit-identical to the zero-skip, including an
// accumulator that already holds −0 and a skipped 0·Inf.
func mulTNNarrowRange(acc []float64, a, b *Matrix, lo, hi int) {
	m := b.Cols
	if m == 0 || lo >= hi || a.Rows == 0 {
		return
	}
	mask := laneMask(m)
	mulTNNarrowAVX2(&acc[lo*m], &a.Data[lo], &b.Data[0], a.Rows, hi-lo, a.Cols, m, &mask)
}

// laneMask is the narrow kernels' VMASKMOVPD mask for rows of m < 4
// doubles: all ones in lanes j < m, so loads and stores never touch
// memory past a row.
func laneMask(m int) [4]int64 {
	var mask [4]int64
	for j := 0; j < m; j++ {
		mask[j] = -1
	}
	return mask
}

// mulRangeAccel accumulates rows [lo, hi) of A·B with the vector axpy
// kernels: nonzero A entries of each k-block are taken in ascending
// order and applied in pairs, so every output element sees the same
// addition chain as the scalar zero-skip kernel — one rounding per
// nonzero k, ascending — while halving the output-row load/store
// traffic. The last ragged columns (m mod 4) run the same pairing in
// scalar code. A product narrower than one vector (m < 4) takes
// mulNarrowRange instead.
func mulRangeAccel(out, a, b *Matrix, lo, hi int) bool {
	if !useMulAVX2 {
		return false
	}
	m := b.Cols
	if m < 4 {
		mulNarrowRange(out, a, b, lo, hi)
		return true
	}
	m4 := m &^ 3
	for kb := 0; kb < a.Cols; kb += mulKBlock {
		ke := kb + mulKBlock
		if ke > a.Cols {
			ke = a.Cols
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols+kb : i*a.Cols+ke]
			orow := out.Data[i*m : (i+1)*m]
			kk := 0
			for {
				for kk < len(arow) && arow[kk] == 0 {
					kk++
				}
				if kk == len(arow) {
					break
				}
				av0, k0 := arow[kk], kb+kk
				kk++
				for kk < len(arow) && arow[kk] == 0 {
					kk++
				}
				b0 := b.Data[k0*m : (k0+1)*m]
				if kk == len(arow) {
					if m4 > 0 {
						axpy1AVX2(&orow[0], &b0[0], av0, m4)
					}
					for j := m4; j < m; j++ {
						orow[j] += av0 * b0[j]
					}
					break
				}
				av1, k1 := arow[kk], kb+kk
				kk++
				b1 := b.Data[k1*m : (k1+1)*m]
				if m4 > 0 {
					axpy2AVX2(&orow[0], &b0[0], &b1[0], av0, av1, m4)
				}
				for j := m4; j < m; j++ {
					t := orow[j] + av0*b0[j]
					orow[j] = t + av1*b1[j]
				}
			}
		}
	}
	return true
}

// mulNarrowRange accumulates rows [lo, hi) of A·B for B with fewer
// than 4 columns, such as a classifier's 128→2 output layer: there the
// axpy kernels get no full vector to work on, and the zero-skip's
// data-dependent branch mispredicts on ReLU-sparse rows. Each output
// element is instead one register chain over k ascending
// (mulNarrowAVX2) that adds every product, masked to +0 where the A
// entry is ±0. MulInto zeroes out first, so every chain starts at +0;
// round-to-nearest addition yields −0 only from two −0 operands, so a
// chain never becomes −0 and adding +0 leaves it unchanged. The result
// is therefore bit-identical to skipping those terms, even where the
// skipped product would have been NaN (0·Inf).
func mulNarrowRange(out, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Cols
	if k == 0 || m == 0 || lo >= hi {
		return
	}
	mask := laneMask(m)
	mulNarrowAVX2(&out.Data[lo*m], &a.Data[lo*k], &b.Data[0], hi-lo, k, m, &mask)
}

// bitsMulAccel runs bitsMulRange over the longest 4-aligned prefix of
// the columns and returns its width; 0 when AVX2 is off. Each 64-column
// tile of the rows goes through bitsFwd16AVX2, and the columns past the
// last full tile through bitsFwd1AVX2, four at a time. The kernels walk
// each row's set bits themselves, so any input width works without
// scratch.
func bitsMulAccel(out *Matrix, x *BitMatrix, w *Matrix, b []float64, lo, hi int) int {
	m := w.Cols
	m4 := m &^ 3
	if !useMulAVX2 || m4 == 0 || lo >= hi {
		return 0
	}
	words := x.Words()
	o, xr, tail := out.Data[lo*m:], &x.Data[lo*words], x.tailMask()
	c := 0
	for ; c+64 <= m4; c += 64 {
		bitsFwd16AVX2(&o[c], xr, &w.Data[c], &b[c], hi-lo, words, tail, m)
	}
	for ; c < m4; c += 4 {
		bitsFwd1AVX2(&o[c], xr, &w.Data[c], &b[c], hi-lo, words, tail, m)
	}
	return m4
}

// bitsMulTNAccel runs bitsMulTNAcc over the longest 4-aligned prefix of
// the columns and returns its width; 0 when AVX2 is off. Samples go in
// blocks of up to 64. For each input word, the block's words are
// transposed into one sample mask per feature (bits.Transpose64, rows
// past the block zero), and bitsGrad16AVX2 and bitsGrad1AVX2 add the
// masked samples' gradient tiles into each feature's dW tile in
// registers. Blocks run in ascending order, so every element still
// gains its samples in ascending order. Bits past Cols land in the
// masks of features past nfeat, which no kernel reads.
func bitsMulTNAccel(acc []float64, x *BitMatrix, g *Matrix) int {
	m := g.Cols
	m4 := m &^ 3
	if !useMulAVX2 || m4 == 0 || x.Rows == 0 {
		return 0
	}
	words := x.Words()
	var masks [64]uint64
	for n0 := 0; n0 < x.Rows; n0 += 64 {
		blk := min(64, x.Rows-n0)
		gb := g.Data[n0*m:]
		for wi := 0; wi < words; wi++ {
			for s := 0; s < blk; s++ {
				masks[s] = x.Data[(n0+s)*words+wi]
			}
			clear(masks[blk:])
			bits.Transpose64(&masks)
			nfeat := min(64, x.Cols-wi*64)
			a := acc[wi*64*m:]
			c := 0
			for ; c+64 <= m4; c += 64 {
				bitsGrad16AVX2(&a[c], &gb[c], &masks, nfeat, m)
			}
			for ; c < m4; c += 4 {
				bitsGrad1AVX2(&a[c], &gb[c], &masks, nfeat, m)
			}
		}
	}
	return m4
}

// foldAccel runs the training engine's shard fold (see foldShards) over
// the longest 4-aligned prefix of the slots through foldShardsAVX2 and
// returns its length; 0 when AVX2 is off.
func foldAccel(s *[fitShards][]float64) int {
	n4 := len(s[0]) &^ 3
	if !useMulAVX2 || n4 == 0 {
		return 0
	}
	var p [fitShards]*float64
	for v := range p {
		p[v] = &s[v][:n4][0]
	}
	foldShardsAVX2(&p, n4)
	return n4
}

// adamAccel runs Adam.update's arithmetic over the longest 4-aligned
// prefix of w through adamAVX2 and returns its length; 0 when AVX2 is
// off. k holds the step's constants in adamAVX2's order.
func adamAccel(w, g, m, v []float64, k *[8]float64) int {
	n4 := len(w) &^ 3
	if !useMulAVX2 || n4 == 0 {
		return 0
	}
	adamAVX2(&w[0], &g[:n4][0], &m[:n4][0], &v[:n4][0], n4, k)
	return n4
}
