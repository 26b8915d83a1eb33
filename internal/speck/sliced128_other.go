//go:build !amd64

package speck

func encryptDiffPlanes128Accel(m0, m1 *[64]uint64, mp0, mp1 *[32]uint64, delta Block, n int, out *[128]uint32) bool {
	return false
}
