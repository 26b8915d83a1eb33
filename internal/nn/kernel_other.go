//go:build !amd64

package nn

// mulNTRangeAccel has no accelerated implementation off amd64; the
// caller falls through to the scalar kernel.
func mulNTRangeAccel(out, a, b *Matrix, lo, hi int) bool { return false }

// mulRangeAccel has no accelerated implementation off amd64.
func mulRangeAccel(out, a, b *Matrix, lo, hi int) bool { return false }

// mulTNAccRangeAccel has no accelerated implementation off amd64.
func mulTNAccRangeAccel(acc []float64, a, b *Matrix, lo, hi int) bool { return false }

// bitsMulAccel leaves the packed forward pass to plain Go off amd64.
func bitsMulAccel(out *Matrix, x *BitMatrix, w *Matrix, b []float64, lo, hi int, relu bool) int {
	return 0
}

// bitsMulTNAccel leaves the packed weight gradient to plain Go off
// amd64.
func bitsMulTNAccel(acc []float64, x *BitMatrix, g *Matrix) int { return 0 }

// foldAccel leaves the whole shard fold to the plain-Go loop off amd64.
func foldAccel(s *[fitShards][]float64) int { return 0 }

// adamAccel leaves the whole Adam update to the plain-Go loop off amd64.
func adamAccel(w, g, m, v []float64, k *[8]float64) int { return 0 }
