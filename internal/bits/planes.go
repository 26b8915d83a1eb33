package bits

// Bit-plane arithmetic for the bitsliced cipher kernels. A plane array
// holds one machine word per bit position: bit l of plane i is bit i of
// lane l's word, the layout Transpose64/TransposeRows32 produce.
// Word-wise modular addition becomes a ripple-carry chain over the
// planes — the textbook full adder evaluated once per bit position,
// advancing all 64 lanes per step — and rotations of an operand are
// free: they are a renaming of the plane indices the chain reads. The
// SPECK kernel fuses its 16-bit chain into the round loop; Chaskey
// calls AddPlanes32.

// AddPlanes32 computes the 32-bit modular sum
// RotR32(a, rotA) + RotR32(b, rotB) in plane form via a ripple-carry
// chain, writing into dst. dst may alias neither input. Both operands
// take a plane-index rotation because the Chaskey kernel tracks each
// state word's accumulated rotation as an offset instead of ever
// moving planes.
func AddPlanes32(dst, a *[32]uint64, rotA uint, b *[32]uint64, rotB uint) {
	var c uint64
	for i := uint(0); i < 32; i++ {
		av := a[(i+rotA)&31]
		bv := b[(i+rotB)&31]
		s := av ^ bv
		dst[i] = s ^ c
		c = (av & bv) | (c & s)
	}
}
