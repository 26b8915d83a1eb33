package bits

// This file implements the 64×64 bit-matrix transpose behind the
// bitsliced cipher kernels (speck, simon, simeck, chaskey, gift): 64
// independent lanes, one per matrix row, are flipped into 64
// bit-planes, one per matrix column, so that a single logical word
// operation advances all 64 lanes at once. The convention matches the rest of the repository:
// bit j of row i is matrix element (i, j) — least-significant bit
// first, exactly the packed-row layout of PackBytes/PackFloats.
//
// The transpose is the recursive block swap of Hacker's Delight §7-3,
// adapted to the LSB-first column convention: at block size w the
// off-diagonal w×w quadrants — high columns of low rows, low columns of
// high rows — are exchanged, halving w each stage. Each stage is an
// involution that swaps bit log2(w) of the row index with the same bit
// of the column index; the stages therefore commute, which the
// half-width variants below exploit to run the w=32 stage as a free
// pack/split. The stages are written out with constant shift counts
// and masks: the transpose sits on the per-call critical path of the
// bitsliced sampler (three transposes per 64-lane kernel call), and the
// generic rolled loop costs ~2.5× as much in loop and mask arithmetic.

const (
	tm32 = 0x00000000ffffffff
	tm16 = 0x0000ffff0000ffff
	tm8  = 0x00ff00ff00ff00ff
	tm4  = 0x0f0f0f0f0f0f0f0f
	tm2  = 0x3333333333333333
	tm1  = 0x5555555555555555
)

// transposeStages16to1 runs the w=16 … w=1 butterfly stages over one
// 32-word half. Within these stages every butterfly pairs words of the
// same half, so the two halves of a 64-word matrix can be processed
// independently — and a half known to be zero can be skipped entirely.
func transposeStages16to1(m *[32]uint64) {
	for k := 0; k < 16; k++ {
		t := (m[k]>>16 ^ m[k+16]) & tm16
		m[k] ^= t << 16
		m[k+16] ^= t
	}
	for k0 := 0; k0 < 32; k0 += 16 {
		for k := k0; k < k0+8; k++ {
			t := (m[k]>>8 ^ m[k+8]) & tm8
			m[k] ^= t << 8
			m[k+8] ^= t
		}
	}
	for k0 := 0; k0 < 32; k0 += 8 {
		for k := k0; k < k0+4; k++ {
			t := (m[k]>>4 ^ m[k+4]) & tm4
			m[k] ^= t << 4
			m[k+4] ^= t
		}
	}
	for k0 := 0; k0 < 32; k0 += 4 {
		for k := k0; k < k0+2; k++ {
			t := (m[k]>>2 ^ m[k+2]) & tm2
			m[k] ^= t << 2
			m[k+2] ^= t
		}
	}
	for k := 0; k < 32; k += 2 {
		t := (m[k]>>1 ^ m[k+1]) & tm1
		m[k] ^= t << 1
		m[k+1] ^= t
	}
}

// Transpose64 transposes the 64×64 bit matrix m in place: afterwards
// bit i of m[j] is what bit j of m[i] was. On amd64 with AVX2 the
// butterflies run four words per vector op (transpose_amd64.s);
// elsewhere, or when AVX2 is absent, the scalar stages below run.
func Transpose64(m *[64]uint64) { transpose64(m) }

func transpose64Scalar(m *[64]uint64) {
	for k := 0; k < 32; k++ {
		t := (m[k]>>32 ^ m[k+32]) & tm32
		m[k] ^= t << 32
		m[k+32] ^= t
	}
	lo := (*[32]uint64)(m[0:32])
	hi := (*[32]uint64)(m[32:64])
	transposeStages16to1(lo)
	transposeStages16to1(hi)
}

// TransposeRows32 transposes 64 rows of 32 bits into 32 planes of 64
// bits: bit l of planes[j] is bit j of rows[l]. It is Transpose64 on
// the 64×64 matrix whose upper 32 columns are zero, with the w=32
// stage folded into row packing (on that matrix the stage degenerates
// to m[k] = rows[k] | rows[k+32]<<32) and the all-zero upper half
// skipped in every remaining stage — half the butterflies of the full
// transpose, for the cipher-state matrices whose rows are one 32-bit
// block.
func TransposeRows32(rows *[64]uint32, planes *[32]uint64) {
	for k := 0; k < 32; k++ {
		planes[k] = uint64(rows[k]) | uint64(rows[k+32])<<32
	}
	transposeStages(planes)
}

// TransposeTop16Pair transposes the top 16 bits of each lane of two
// draw columns into 32 bit-planes: for j < 16, bit l of planes[j] is
// bit j of uint16(a[l]>>48), and bit l of planes[16+j] is bit j of
// uint16(b[l]>>48). A Rand.Uint16 draw is the top 16 bits of one
// Uint64 output, so this turns two prng.DrawWords64Strided
// columns directly into the 16-bit half-block plane pair the bitsliced
// cipher kernels consume. Like TransposeRows32 it folds the w=32
// butterfly stage into the packing loop; the top-16 extraction rides
// along for free.
func TransposeTop16Pair(a, b *[64]uint64, planes *[32]uint64) {
	for k := 0; k < 32; k++ {
		planes[k] = a[k]>>48 | (b[k]>>48)<<16 | (a[k+32]>>48)<<32 | (b[k+32]>>48)<<48
	}
	transposeStages(planes)
}

// UntransposeRows32 inverts TransposeRows32: bit j of rows[l] is bit l
// of planes[j]. Because the butterfly stages commute, the w=16 … w=1
// stages run first on the single live half and the w=32 stage becomes
// the final word split.
func UntransposeRows32(planes *[32]uint64, rows *[64]uint32) {
	m := *planes
	transposeStages(&m)
	for k := 0; k < 32; k++ {
		rows[k] = uint32(m[k])
		rows[k+32] = uint32(m[k] >> 32)
	}
}
