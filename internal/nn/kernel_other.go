//go:build !amd64

package nn

// mulNTRangeAccel has no accelerated implementation off amd64; the
// caller falls through to the scalar kernel.
func mulNTRangeAccel(out, a, b *Matrix, lo, hi int) bool { return false }

// mulRangeAccel has no accelerated implementation off amd64.
func mulRangeAccel(out, a, b *Matrix, lo, hi int) bool { return false }

// mulTNAccRangeAccel has no accelerated implementation off amd64.
func mulTNAccRangeAccel(acc []float64, a, b *Matrix, lo, hi int) bool { return false }

// addRows is the plain-Go row add off amd64.
func addRows(o, b0 []float64) { addRowsGo(o, b0) }

// addRows2 is the plain-Go paired row add off amd64.
func addRows2(o, b0, b1 []float64) { addRows2Go(o, b0, b1) }

// foldAccel leaves the whole shard fold to the plain-Go loop off amd64.
func foldAccel(s *[fitShards][]float64) int { return 0 }

// adamAccel leaves the whole Adam update to the plain-Go loop off amd64.
func adamAccel(w, g, m, v []float64, k *[8]float64) int { return 0 }
