package bits_test

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/testkit"
)

// The plane adder is pinned directly against machine addition: pack 64
// random word pairs into planes, add in plane form, and compare lane
// for lane with RotR(a, rotA) + RotR(b, rotB) done in plain integers.
// The sliced Chaskey kernel inherits these semantics wholesale.

type addCase32 struct {
	A, B       [64]uint32
	RotA, RotB uint
}

func addCases32() testkit.Gen[addCase32] {
	return testkit.Gen[addCase32]{
		Name: "plane add 32",
		Generate: func(r *prng.Rand) addCase32 {
			var c addCase32
			for l := range c.A {
				c.A[l], c.B[l] = r.Uint32(), r.Uint32()
			}
			c.RotA = uint(r.Uint64() % 32)
			c.RotB = uint(r.Uint64() % 32)
			return c
		},
		Format: func(c addCase32) string {
			return fmt.Sprintf("rotA=%d rotB=%d lane0 a=%08x b=%08x", c.RotA, c.RotB, c.A[0], c.B[0])
		},
	}
}

func TestAddPlanes32(t *testing.T) {
	testkit.Check(t, "add-planes-32", addCases32(), func(c addCase32) error {
		var pa, pb, dst [32]uint64
		for i := uint(0); i < 32; i++ {
			for l := uint(0); l < 64; l++ {
				pa[i] |= uint64(c.A[l]>>i&1) << l
				pb[i] |= uint64(c.B[l]>>i&1) << l
			}
		}
		bits.AddPlanes32(&dst, &pa, c.RotA, &pb, c.RotB)
		for l := uint(0); l < 64; l++ {
			var ga, gb uint32
			for i := uint(0); i < 32; i++ {
				ga |= uint32(pa[(i+c.RotA)&31]>>l&1) << i
				gb |= uint32(pb[(i+c.RotB)&31]>>l&1) << i
			}
			want := bits.RotR32(c.A[l], c.RotA) + bits.RotR32(c.B[l], c.RotB)
			var got uint32
			for i := uint(0); i < 32; i++ {
				got |= uint32(dst[i]>>l&1) << i
			}
			if got != want {
				return fmt.Errorf("lane %d: %08x vs %08x (operands %08x %08x)", l, got, want, ga, gb)
			}
		}
		return nil
	})
}
