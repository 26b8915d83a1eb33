//go:build !amd64

package chaskey

func permuteDiffColsAccel(cols *[4 * SlicedLanes]uint64, delta State, n int, outLo, outHi *[64]uint64) bool {
	return false
}
