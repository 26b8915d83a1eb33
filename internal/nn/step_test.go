package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// reduceGradTree is the specification of the training engine's
// gradient merge: shard slots folded into grads[0] by a fixed-order
// pairwise tree, ((g0+g1)+(g2+g3)) + ((g4+g5)+(g6+g7)), one in-place
// add per tree edge.
func reduceGradTree(grads [][][]float64) {
	for stride := 1; stride < len(grads); stride *= 2 {
		for v := 0; v+stride < len(grads); v += 2 * stride {
			a, b := grads[v], grads[v+stride]
			for pi := range a {
				for i, x := range b[pi] {
					a[pi][i] += x
				}
			}
		}
	}
}

// stepLengths are the element counts the merge and update kernels are
// checked at: every length around one and two vectors, and one past a
// whole chunk's worth of vectors.
var stepLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 1027}

// saltedFloats draws n normal values with about one in six replaced by
// ±0, NaN, ±Inf or a subnormal.
func saltedFloats(r *prng.Rand, n int) []float64 {
	sub := math.SmallestNonzeroFloat64
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), sub, -3 * sub}
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
		if r.Intn(6) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
	return v
}

// sameValues reports the first index where got and want differ bit for
// bit, except that any NaN matches any NaN (see matricesSameValues),
// or −1.
func sameValues(got, want []float64) int {
	for i, g := range got {
		w := want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// TestFoldShardsMatchesTree: the merge phase's fold, with AVX2 on and
// forced off, leaves in slot 0 the bytes reduceGradTree produces and
// leaves +0 in every element of slots 1–7, so the next step's shards
// accumulate from zero.
func TestFoldShardsMatchesTree(t *testing.T) {
	r := prng.New(0xf01d)
	for _, n := range stepLengths {
		for _, salted := range []bool{false, true} {
			var slots [fitShards][]float64
			for v := range slots {
				if salted {
					slots[v] = saltedFloats(r, n)
				} else {
					slots[v] = randMatrix(r, 1, n).Data
				}
			}
			tree := make([][][]float64, fitShards)
			for v := range tree {
				tree[v] = [][]float64{append([]float64(nil), slots[v]...)}
			}
			reduceGradTree(tree)
			for _, scalar := range []bool{false, true} {
				var got [fitShards][]float64
				for v := range got {
					got[v] = append([]float64(nil), slots[v]...)
				}
				if scalar {
					forceScalarMul(func() { foldShards(&got) })
				} else {
					foldShards(&got)
				}
				what := fmt.Sprintf("n=%d salted=%v scalar=%v", n, salted, scalar)
				if i := sameValues(got[0], tree[0][0]); i >= 0 {
					t.Fatalf("%s: element %d = %x, tree %x", what, i, math.Float64bits(got[0][i]), math.Float64bits(tree[0][0][i]))
				}
				for v := 1; v < fitShards; v++ {
					for i, x := range got[v] {
						if math.Float64bits(x) != 0 {
							t.Fatalf("%s: slot %d element %d = %v after the fold, want +0", what, v, i, x)
						}
					}
				}
			}
		}
	}
}

// TestAdamUpdateMatchesScalar: Adam's vector update equals the scalar
// loop bit for bit (NaN by value) in the weights and both moments, at
// every length around the vector width, over a whole parameter and
// over a range that starts off a vector boundary, with plain values
// and with gradients, weights and moments salted with special values.
func TestAdamUpdateMatchesScalar(t *testing.T) {
	r := prng.New(0xada3)
	for _, n := range stepLengths {
		for _, c := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
			lo, salted := c[0], c[1] == 1
			if lo >= n {
				continue
			}
			draw := func() []float64 {
				if salted {
					return saltedFloats(r, n)
				}
				return randMatrix(r, 1, n).Data
			}
			w0, g, m, v := draw(), draw(), draw(), draw()
			for i := range v {
				v[i] = math.Abs(v[i])
			}
			run := func() (w, m1, v1 []float64) {
				p := &Param{W: append([]float64(nil), w0...), Grad: g}
				a := NewAdam(0.01)
				a.t = 2 // so begin sets step 3's bias corrections
				a.m[p] = append([]float64(nil), m...)
				a.v[p] = append([]float64(nil), v...)
				a.begin([]*Param{p})
				a.update(p, lo, n)
				return p.W, a.m[p], a.v[p]
			}
			gw, gm, gv := run()
			var sw, sm, sv []float64
			forceScalarMul(func() { sw, sm, sv = run() })
			for _, f := range []struct {
				name      string
				got, want []float64
			}{{"W", gw, sw}, {"m", gm, sm}, {"v", gv, sv}} {
				if i := sameValues(f.got, f.want); i >= 0 {
					t.Fatalf("n=%d lo=%d salted=%v: %s[%d] = %x, scalar %x", n, lo, salted, f.name, i, math.Float64bits(f.got[i]), math.Float64bits(f.want[i]))
				}
			}
			for i := 0; i < lo; i++ {
				if math.Float64bits(gw[i]) != math.Float64bits(w0[i]) {
					t.Fatalf("n=%d lo=%d salted=%v: W[%d] outside the range changed", n, lo, salted, i)
				}
			}
		}
	}
}
