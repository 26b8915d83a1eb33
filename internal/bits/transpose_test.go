package bits_test

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/prng"
	"repro/internal/testkit"
)

// bitMatrix generates random 64×64 bit matrices. Shrinking zeroes
// whole rows so a counterexample reports the smallest matrix (fewest
// set rows) that still violates the property.
func bitMatrix() testkit.Gen[[64]uint64] {
	return testkit.Gen[[64]uint64]{
		Name: "64×64 bit matrix",
		Generate: func(r *prng.Rand) [64]uint64 {
			var m [64]uint64
			for i := range m {
				m[i] = r.Uint64()
			}
			return m
		},
		Shrink: func(v [64]uint64) [][64]uint64 {
			var out [][64]uint64
			for i := range v {
				if v[i] != 0 {
					w := v
					w[i] = 0
					out = append(out, w)
				}
			}
			return out
		},
		Format: func(v [64]uint64) string {
			return fmt.Sprintf("row0=%#016x row63=%#016x", v[0], v[63])
		},
	}
}

// naiveTranspose is the definition: bit i of out[j] = bit j of in[i].
func naiveTranspose(in [64]uint64) [64]uint64 {
	var out [64]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			out[j] |= (in[i] >> uint(j) & 1) << uint(i)
		}
	}
	return out
}

// TestTranspose64Definition: the block-swap transpose matches the
// quadratic definition on random matrices.
func TestTranspose64Definition(t *testing.T) {
	testkit.Check(t, "transpose64-definition", bitMatrix(), func(m [64]uint64) error {
		want := naiveTranspose(m)
		got := m
		bits.Transpose64(&got)
		if got != want {
			return fmt.Errorf("transpose differs from definition")
		}
		return nil
	})
}

// TestTranspose64RoundTrip: Transpose64 is an involution, so applying
// it twice is the identity.
func TestTranspose64RoundTrip(t *testing.T) {
	testkit.Check(t, "transpose64-roundtrip", bitMatrix(), func(m [64]uint64) error {
		got := m
		bits.Transpose64(&got)
		bits.Transpose64(&got)
		if got != m {
			return fmt.Errorf("round trip is not the identity")
		}
		return nil
	})
}

// TestTransposeRows32MatchesFull: the half-width lane↔plane transposes
// agree with the full Transpose64 on matrices whose rows are 32-bit,
// and round-trip to the identity.
func TestTransposeRows32MatchesFull(t *testing.T) {
	testkit.Check(t, "transpose-rows32", bitMatrix(), func(m [64]uint64) error {
		var rows [64]uint32
		full := m
		for i := range rows {
			rows[i] = uint32(m[i])
			full[i] = uint64(rows[i])
		}
		bits.Transpose64(&full)
		var planes [32]uint64
		bits.TransposeRows32(&rows, &planes)
		for j := 0; j < 32; j++ {
			if planes[j] != full[j] {
				return fmt.Errorf("plane %d: half-width %#x vs full %#x", j, planes[j], full[j])
			}
		}
		for j := 32; j < 64; j++ {
			if full[j] != 0 {
				return fmt.Errorf("full transpose plane %d nonzero for 32-bit rows", j)
			}
		}
		var back [64]uint32
		bits.UntransposeRows32(&planes, &back)
		if back != rows {
			return fmt.Errorf("rows32 round trip is not the identity")
		}
		return nil
	})
}

// TestTransposeTop16Pair: packing the top 16 bits of two draw columns
// into a 32-bit row and running TransposeRows32 is the definition; the
// fused helper must match it.
func TestTransposeTop16Pair(t *testing.T) {
	testkit.Check(t, "transpose-top16-pair", bitMatrix(), func(m [64]uint64) error {
		var b [64]uint64
		for i := range b {
			b[i] = m[i]*0x9e3779b97f4a7c15 + 1 // a second, distinct column
		}
		var rows [64]uint32
		for l := range rows {
			rows[l] = uint32(m[l]>>48) | uint32(b[l]>>48)<<16
		}
		var want, got [32]uint64
		bits.TransposeRows32(&rows, &want)
		bits.TransposeTop16Pair(&m, &b, &got)
		if got != want {
			return fmt.Errorf("fused top16 transpose differs from pack+TransposeRows32")
		}
		return nil
	})
}

// TestTranspose64Basis pins the convention on unit vectors: a single
// bit at (i, j) must land at (j, i).
func TestTranspose64Basis(t *testing.T) {
	for _, pos := range [][2]int{{0, 0}, {0, 63}, {63, 0}, {17, 42}, {5, 5}, {31, 32}} {
		var m [64]uint64
		m[pos[0]] = 1 << uint(pos[1])
		bits.Transpose64(&m)
		for r := 0; r < 64; r++ {
			want := uint64(0)
			if r == pos[1] {
				want = 1 << uint(pos[0])
			}
			if m[r] != want {
				t.Fatalf("bit (%d,%d): transposed row %d = %#x, want %#x", pos[0], pos[1], r, m[r], want)
			}
		}
	}
}
