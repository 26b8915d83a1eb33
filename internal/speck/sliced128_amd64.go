//go:build amd64

package speck

import (
	"unsafe"

	"repro/internal/bits"
	"repro/internal/cpu"
)

// AVX2 side of EncryptDiffPlanes128: the Go wrapper here builds the
// interleaved plane buffer and the assembly kernel in sliced_amd64.s
// runs the rounds. useSpeckAVX2 is a variable so tests can force the
// two-half fallback and check both paths agree on the same machine.

var useSpeckAVX2 = cpu.HasAVX2()

// diffPlanes128 is the in-memory plane layout the assembly kernel walks.
// Each [4]uint64 is one YMM-sized bit plane: state planes (x, y) hold
// [a·g0, a·g1, b·g0, b·g1] — δ-partner states a/b of lane groups
// g0/g1 — and key-material planes (rk, l) hold [g0, g1, g0, g1], so a
// schedule-produced round key lines up with the state planes as is.
// x0/y0 and x1/y1 are the ping-pong round buffers; rk ping-pongs the
// current/next round key; l is the schedule's four-slot ring.
type diffPlanes128 struct {
	x0, y0 [16][4]uint64
	x1, y1 [16][4]uint64
	rk     [2][16][4]uint64
	l      [4][16][4]uint64
}

// The assembly addresses the struct by constant byte offsets; pin them.
const (
	_ = uint(unsafe.Offsetof(diffPlanes128{}.y0) - 512)
	_ = uint(unsafe.Offsetof(diffPlanes128{}.x1) - 1024)
	_ = uint(unsafe.Offsetof(diffPlanes128{}.y1) - 1536)
	_ = uint(unsafe.Offsetof(diffPlanes128{}.rk) - 2048)
	_ = uint(unsafe.Offsetof(diffPlanes128{}.l) - 3072)
	_ = uint(5120 - unsafe.Sizeof(diffPlanes128{}))
	_ = uint(unsafe.Sizeof(diffPlanes128{}) - 5120)
)

// scheduleRC[r][bit] is the all-ones mask when bit `bit` of the round
// counter r is set — the branchless plane form of the schedule's ^r,
// broadcast to all four lanes by the kernel.
var scheduleRC = func() (t [Rounds][16]uint64) {
	for r := range t {
		for bit := 0; bit < 16; bit++ {
			t[r][bit] = -(uint64(r) >> bit & 1)
		}
	}
	return
}()

// encryptDiffAVX2 runs n fused round+schedule steps over the plane
// buffer (sliced_amd64.s). The result planes land in x0/y0 when n is
// even and x1/y1 when n is odd.
//
//go:noescape
func encryptDiffAVX2(p *diffPlanes128, n int)

func encryptDiffPlanes128Accel(m0, m1 *[64]uint64, mp0, mp1 *[32]uint64, delta Block, n int, out *[128]uint32) bool {
	if !useSpeckAVX2 {
		return false
	}
	var p diffPlanes128

	// Key planes per group interleave duplicated [g0, g1, g0, g1].
	// Plane groups follow the key word order: l2 ‖ l1 ‖ l0 ‖ rk0.
	for bit := 0; bit < 16; bit++ {
		p.l[2][bit] = [4]uint64{m0[bit], m1[bit], m0[bit], m1[bit]}
		p.l[1][bit] = [4]uint64{m0[16+bit], m1[16+bit], m0[16+bit], m1[16+bit]}
		p.l[0][bit] = [4]uint64{m0[32+bit], m1[32+bit], m0[32+bit], m1[32+bit]}
		p.rk[0][bit] = [4]uint64{m0[48+bit], m1[48+bit], m0[48+bit], m1[48+bit]}
	}

	// The b state is the a state with the δ planes complemented,
	// exactly as in the 64-lane kernel.
	for bit := 0; bit < 16; bit++ {
		dx := -(uint64(delta.X) >> bit & 1)
		dy := -(uint64(delta.Y) >> bit & 1)
		p.x0[bit] = [4]uint64{mp0[bit], mp1[bit], mp0[bit] ^ dx, mp1[bit] ^ dx}
		p.y0[bit] = [4]uint64{mp0[16+bit], mp1[16+bit], mp0[16+bit] ^ dy, mp1[16+bit] ^ dy}
	}

	encryptDiffAVX2(&p, n)

	rx, ry := &p.x0, &p.y0
	if n&1 == 1 {
		rx, ry = &p.x1, &p.y1
	}
	var od0, od1 [32]uint64
	for bit := 0; bit < 16; bit++ {
		od0[bit] = rx[bit][0] ^ rx[bit][2]
		od1[bit] = rx[bit][1] ^ rx[bit][3]
		od0[16+bit] = ry[bit][0] ^ ry[bit][2]
		od1[16+bit] = ry[bit][1] ^ ry[bit][3]
	}
	bits.UntransposeRows32(&od0, (*[64]uint32)(out[0:64]))
	bits.UntransposeRows32(&od1, (*[64]uint32)(out[64:128]))
	return true
}
