//go:build amd64

package speck

import (
	"testing"

	"repro/internal/prng"
)

// The AVX2 interleaved-plane kernel and the two-half portable fallback
// are alternative implementations of the same function; on a machine
// that has both, they must be bit-identical.
func TestEncryptDiff128AccelMatchesFallback(t *testing.T) {
	if !useSpeckAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	defer func() { useSpeckAVX2 = true }()
	r := prng.New(0x51c)
	for trial := 0; trial < 64; trial++ {
		// Random planes are the transpose of random lane rows.
		var k0, k1 [64]uint64
		var p0, p1 [32]uint64
		for i := range k0 {
			k0[i], k1[i] = r.Uint64(), r.Uint64()
		}
		for i := range p0 {
			p0[i], p1[i] = r.Uint64(), r.Uint64()
		}
		n := int(r.Uint64() % (Rounds + 1))
		delta := Block{X: r.Uint16(), Y: r.Uint16()}
		if trial == 0 {
			delta = GohrDelta
		}
		// The entry clobbers its planes, so each arm gets a copy.
		var accel, fallback [128]uint32
		m0, m1, mp0, mp1 := k0, k1, p0, p1
		useSpeckAVX2 = true
		EncryptDiffPlanes128(&m0, &m1, &mp0, &mp1, delta, n, &accel)
		m0, m1, mp0, mp1 = k0, k1, p0, p1
		useSpeckAVX2 = false
		EncryptDiffPlanes128(&m0, &m1, &mp0, &mp1, delta, n, &fallback)
		if accel != fallback {
			t.Fatalf("trial %d (n=%d): AVX2 kernel diverges from portable fallback", trial, n)
		}
	}
}
