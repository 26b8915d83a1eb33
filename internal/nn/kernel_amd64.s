// AVX2 micro-kernels for the dense-layer matrix products. Bit-identity
// with the scalar kernels is load-bearing (trained weights must not
// depend on the host): every vector lane is one of the scalar path's
// accumulation chains, VMULPD/VADDPD round exactly like the scalar
// mul-then-add, and no FMA contraction is ever used.

#include "textflag.h"

// dotNT4x4AVX2 computes the four stride-4 partial-sum vectors of a 2×2
// output tile of A·Bᵀ over the first k4 elements (k4 ≡ 0 mod 4):
//
//	s[0][l] = Σ_{p ≡ l (4), p < k4} a0[p]·b0[p]   (likewise s[1]=a0·b1,
//	s[2]=a1·b0, s[3]=a1·b1)
//
// Lane l of each accumulator register IS scalar partial s_l, fed in the
// same ascending-p order, so the caller's s[0]+s[1]+s[2]+s[3] combine
// reproduces the scalar dot product bit for bit.
//
// func dotNT4x4AVX2(a0, a1, b0, b1 *float64, k4 int, s *[4][4]float64)
TEXT ·dotNT4x4AVX2(SB), NOSPLIT, $0-48
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ k4+32(FP), CX
	MOVQ s+40(FP), DX
	SHLQ $3, CX            // byte length of the k4 prefix
	VXORPD Y8, Y8, Y8      // acc a0·b0
	VXORPD Y9, Y9, Y9      // acc a0·b1
	VXORPD Y10, Y10, Y10   // acc a1·b0
	VXORPD Y11, Y11, Y11   // acc a1·b1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~63, BX          // 8-double (64-byte) unrolled prefix
	CMPQ AX, BX
	JGE  tail4

loop8:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	VMULPD  Y2, Y0, Y4
	VADDPD  Y4, Y8, Y8
	VMULPD  Y3, Y0, Y5
	VADDPD  Y5, Y9, Y9
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y3, Y1, Y7
	VADDPD  Y7, Y11, Y11
	VMOVUPD 32(SI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 32(R8)(AX*1), Y2
	VMOVUPD 32(R9)(AX*1), Y3
	VMULPD  Y2, Y0, Y4
	VADDPD  Y4, Y8, Y8
	VMULPD  Y3, Y0, Y5
	VADDPD  Y5, Y9, Y9
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y3, Y1, Y7
	VADDPD  Y7, Y11, Y11
	ADDQ $64, AX
	CMPQ AX, BX
	JL   loop8

tail4:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	VMULPD  Y2, Y0, Y4
	VADDPD  Y4, Y8, Y8
	VMULPD  Y3, Y0, Y5
	VADDPD  Y5, Y9, Y9
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y3, Y1, Y7
	VADDPD  Y7, Y11, Y11
	ADDQ $32, AX
	JMP  tail4

done:
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	VMOVUPD Y10, 64(DX)
	VMOVUPD Y11, 96(DX)
	VZEROUPPER
	RET

// axpy2AVX2 applies two fused axpy updates over the first m4 elements
// (m4 ≡ 0 mod 4): o[j] = (o[j] + a0·b0[j]) + a1·b1[j], with the inner
// parenthesization explicit in the instruction order — the same chain
// the scalar zero-skip kernel produces for two consecutive nonzero A
// entries.
//
// func axpy2AVX2(o, b0, b1 *float64, a0, a1 float64, m4 int)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	VBROADCASTSD a0+24(FP), Y6
	VBROADCASTSD a1+32(FP), Y7
	MOVQ m4+40(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~63, BX
	CMPQ AX, BX
	JGE  tail4

loop8:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD (R8)(AX*1), Y2
	VMULPD  Y7, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD 32(SI)(AX*1), Y4
	VMULPD  Y6, Y4, Y4
	VADDPD  32(DI)(AX*1), Y4, Y3
	VMOVUPD 32(R8)(AX*1), Y5
	VMULPD  Y7, Y5, Y5
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y3, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JL   loop8

tail4:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD (R8)(AX*1), Y2
	VMULPD  Y7, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  tail4

done:
	VZEROUPPER
	RET

// axpy1AVX2 applies o[j] += a0·b0[j] over the first m4 elements
// (m4 ≡ 0 mod 4) — the trailing unpaired nonzero A entry of a k-block.
//
// func axpy1AVX2(o, b0 *float64, a0 float64, m4 int)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ b0+8(FP), SI
	VBROADCASTSD a0+16(FP), Y6
	MOVQ m4+24(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~63, BX
	CMPQ AX, BX
	JGE  tail4

loop8:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD 32(SI)(AX*1), Y3
	VMULPD  Y6, Y3, Y3
	VADDPD  32(DI)(AX*1), Y3, Y2
	VMOVUPD Y2, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JL   loop8

tail4:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  tail4

done:
	VZEROUPPER
	RET

// The packed first layer's tile kernels hold a 64-double tile of an
// output row (Y0–Y15) or a 4-double tile (Y0) in registers, add one
// source row's tile per set bit in ascending bit order, and store the
// tile once. These macros are the 16-register tile's load, add and
// store.
#define ZERO16 \
	VXORPD Y0, Y0, Y0; VXORPD Y1, Y1, Y1; VXORPD Y2, Y2, Y2; VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; VXORPD Y5, Y5, Y5; VXORPD Y6, Y6, Y6; VXORPD Y7, Y7, Y7; \
	VXORPD Y8, Y8, Y8; VXORPD Y9, Y9, Y9; VXORPD Y10, Y10, Y10; VXORPD Y11, Y11, Y11; \
	VXORPD Y12, Y12, Y12; VXORPD Y13, Y13, Y13; VXORPD Y14, Y14, Y14; VXORPD Y15, Y15, Y15

#define LOAD16(B) \
	VMOVUPD 0(B), Y0; VMOVUPD 32(B), Y1; VMOVUPD 64(B), Y2; VMOVUPD 96(B), Y3; \
	VMOVUPD 128(B), Y4; VMOVUPD 160(B), Y5; VMOVUPD 192(B), Y6; VMOVUPD 224(B), Y7; \
	VMOVUPD 256(B), Y8; VMOVUPD 288(B), Y9; VMOVUPD 320(B), Y10; VMOVUPD 352(B), Y11; \
	VMOVUPD 384(B), Y12; VMOVUPD 416(B), Y13; VMOVUPD 448(B), Y14; VMOVUPD 480(B), Y15

#define STORE16(B) \
	VMOVUPD Y0, 0(B); VMOVUPD Y1, 32(B); VMOVUPD Y2, 64(B); VMOVUPD Y3, 96(B); \
	VMOVUPD Y4, 128(B); VMOVUPD Y5, 160(B); VMOVUPD Y6, 192(B); VMOVUPD Y7, 224(B); \
	VMOVUPD Y8, 256(B); VMOVUPD Y9, 288(B); VMOVUPD Y10, 320(B); VMOVUPD Y11, 352(B); \
	VMOVUPD Y12, 384(B); VMOVUPD Y13, 416(B); VMOVUPD Y14, 448(B); VMOVUPD Y15, 480(B)

#define ADD16(B) \
	VADDPD 0(B), Y0, Y0; VADDPD 32(B), Y1, Y1; VADDPD 64(B), Y2, Y2; VADDPD 96(B), Y3, Y3; \
	VADDPD 128(B), Y4, Y4; VADDPD 160(B), Y5, Y5; VADDPD 192(B), Y6, Y6; VADDPD 224(B), Y7, Y7; \
	VADDPD 256(B), Y8, Y8; VADDPD 288(B), Y9, Y9; VADDPD 320(B), Y10, Y10; VADDPD 352(B), Y11, Y11; \
	VADDPD 384(B), Y12, Y12; VADDPD 416(B), Y13, Y13; VADDPD 448(B), Y14, Y14; VADDPD 480(B), Y15, Y15

#define ADDIDX16(B, I) \
	VADDPD 0(B)(I*1), Y0, Y0; VADDPD 32(B)(I*1), Y1, Y1; VADDPD 64(B)(I*1), Y2, Y2; VADDPD 96(B)(I*1), Y3, Y3; \
	VADDPD 128(B)(I*1), Y4, Y4; VADDPD 160(B)(I*1), Y5, Y5; VADDPD 192(B)(I*1), Y6, Y6; VADDPD 224(B)(I*1), Y7, Y7; \
	VADDPD 256(B)(I*1), Y8, Y8; VADDPD 288(B)(I*1), Y9, Y9; VADDPD 320(B)(I*1), Y10, Y10; VADDPD 352(B)(I*1), Y11, Y11; \
	VADDPD 384(B)(I*1), Y12, Y12; VADDPD 416(B)(I*1), Y13, Y13; VADDPD 448(B)(I*1), Y14, Y14; VADDPD 480(B)(I*1), Y15, Y15

// bitsFwd16AVX2 computes one 64-column tile of rows rows of the packed
// first layer's forward pass, b + Σ W[k] over each row's set bits k
// (x holds the rows' words, words per row; w and b point at the tile's
// first column of W and of the bias; o and w have a row stride of m
// doubles). Each row's tile starts at +0, adds W[k]'s tile for every
// set bit in ascending k, adds the bias tile last and is stored once:
// element by element the chain ((+0 + W[k1]) + W[k2]) + … + b that
// MulInto and AddRowVector give the 0.0/1.0 float row. The bits of the
// last word are ANDed with tail, so W is never read past its rows.
//
// func bitsFwd16AVX2(o *float64, x *uint64, w, b *float64, rows, words int, tail uint64, m int)
TEXT ·bitsFwd16AVX2(SB), NOSPLIT, $0-64
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ words+40(FP), R11
	MOVQ m+56(FP), R13
	SHLQ $3, R13           // o and w row stride in bytes
	MOVQ R13, DX
	SHLQ $6, DX            // the w rows of one word's 64 features

row:
	ZERO16
	MOVQ R8, R14           // w rows of the current word's features
	XORQ BX, BX            // word index

word:
	MOVQ (SI)(BX*8), AX
	INCQ BX
	CMPQ BX, R11
	JNE  scan
	ANDQ tail+48(FP), AX

scan:
	TESTQ AX, AX
	JZ    nextword

bit:
	BSFQ  AX, CX
	IMULQ R13, CX          // byte offset of W[k]'s tile
	LEAQ  -1(AX), R12
	ANDQ  R12, AX          // clear the bit; sets ZF for the loop
	ADDIDX16(R14, CX)
	JNZ   bit

nextword:
	ADDQ DX, R14
	CMPQ BX, R11
	JL   word
	ADD16(R9)
	STORE16(DI)
	ADDQ R13, DI
	LEAQ (SI)(R11*8), SI
	DECQ R10
	JNZ  row
	VZEROUPPER
	RET

// bitsFwd1AVX2 is bitsFwd16AVX2 for a 4-column tile, in Y0.
//
// func bitsFwd1AVX2(o *float64, x *uint64, w, b *float64, rows, words int, tail uint64, m int)
TEXT ·bitsFwd1AVX2(SB), NOSPLIT, $0-64
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ words+40(FP), R11
	MOVQ m+56(FP), R13
	SHLQ $3, R13
	MOVQ R13, DX
	SHLQ $6, DX

row:
	VXORPD Y0, Y0, Y0
	MOVQ R8, R14
	XORQ BX, BX

word:
	MOVQ (SI)(BX*8), AX
	INCQ BX
	CMPQ BX, R11
	JNE  scan
	ANDQ tail+48(FP), AX

scan:
	TESTQ AX, AX
	JZ    nextword

bit:
	BSFQ   AX, CX
	IMULQ  R13, CX
	LEAQ   -1(AX), R12
	ANDQ   R12, AX
	VADDPD (R14)(CX*1), Y0, Y0
	JNZ    bit

nextword:
	ADDQ DX, R14
	CMPQ BX, R11
	JL   word
	VADDPD  (R9), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ R13, DI
	LEAQ (SI)(R11*8), SI
	DECQ R10
	JNZ  row
	VZEROUPPER
	RET

// bitsGrad16AVX2 accumulates one 64-column tile of the packed first
// layer's weight gradient for nfeat features k: bit s of masks[k] is
// set when sample s of a block (grad's row s) has feature k. acc points
// at row k = 0's tile of dW and grad at the block's first sample's tile,
// both with a row stride of m doubles. Each feature with a nonzero
// mask loads its dW tile, adds grad's tile for every sample in the mask
// in ascending order, and stores it once: the chain MulTNAcc gives
// each element for the 0.0/1.0 float input, continuing from what acc
// held. A feature with an empty mask leaves its row untouched.
//
// func bitsGrad16AVX2(acc, grad *float64, masks *[64]uint64, nfeat, m int)
TEXT ·bitsGrad16AVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ masks+16(FP), R8
	MOVQ nfeat+24(FP), R9
	MOVQ m+32(FP), R13
	SHLQ $3, R13           // acc and g row stride in bytes

feat:
	MOVQ  (R8), AX
	TESTQ AX, AX
	JZ    next
	LOAD16(DI)

sample:
	BSFQ  AX, CX
	IMULQ R13, CX          // byte offset of g's row
	LEAQ  -1(AX), R12
	ANDQ  R12, AX
	ADDIDX16(SI, CX)
	JNZ   sample
	STORE16(DI)

next:
	ADDQ $8, R8
	ADDQ R13, DI
	DECQ R9
	JNZ  feat
	VZEROUPPER
	RET

// bitsGrad1AVX2 is bitsGrad16AVX2 for a 4-column tile, in Y0.
//
// func bitsGrad1AVX2(acc, grad *float64, masks *[64]uint64, nfeat, m int)
TEXT ·bitsGrad1AVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ masks+16(FP), R8
	MOVQ nfeat+24(FP), R9
	MOVQ m+32(FP), R13
	SHLQ $3, R13

feat:
	MOVQ  (R8), AX
	TESTQ AX, AX
	JZ    next
	VMOVUPD (DI), Y0

sample:
	BSFQ   AX, CX
	IMULQ  R13, CX
	LEAQ   -1(AX), R12
	ANDQ   R12, AX
	VADDPD (SI)(CX*1), Y0, Y0
	JNZ    sample
	VMOVUPD Y0, (DI)

next:
	ADDQ $8, R8
	ADDQ R13, DI
	DECQ R9
	JNZ  feat
	VZEROUPPER
	RET

// mulNarrowAVX2 accumulates n rows of A·B into o for B with m < 4
// columns (a is n×k, b is k×m, o is n×m, all row-major; k > 0). Lane j
// of a row's accumulator register is output element j's chain: for k
// ascending it adds a[kk]·b[kk][j], ANDed to +0 where a[kk] is ±0
// (VCMPPD predicate 4, NEQ_UQ, keeps NaN entries as the zero-skip
// does). mask holds all ones in lanes j < m, so the masked loads and
// stores never touch memory past a row. Rows run four at a time, four
// independent chains in flight.
//
// func mulNarrowAVX2(o, a, b *float64, n, k, m int, mask *[4]int64)
TEXT ·mulNarrowAVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ k+32(FP), DX
	MOVQ m+40(FP), R9
	MOVQ mask+48(FP), AX
	VMOVDQU (AX), Y15
	VXORPD  Y14, Y14, Y14
	SHLQ $3, DX            // a row stride in bytes
	SHLQ $3, R9            // b and o row stride in bytes

rows4:
	CMPQ CX, $4
	JL   rows1
	LEAQ (SI)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (DI)(R9*1), R13
	LEAQ (R13)(R9*1), R14
	VMASKMOVPD (DI), Y15, Y0
	VMASKMOVPD (R13), Y15, Y1
	VMASKMOVPD (R14), Y15, Y2
	VMASKMOVPD (R14)(R9*1), Y15, Y3
	XORQ AX, AX
	MOVQ R8, BX

k4:
	VMASKMOVPD   (BX), Y15, Y4
	VBROADCASTSD (SI)(AX*1), Y5
	VCMPPD       $4, Y14, Y5, Y6
	VMULPD       Y4, Y5, Y5
	VANDPD       Y6, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R10)(AX*1), Y7
	VCMPPD       $4, Y14, Y7, Y8
	VMULPD       Y4, Y7, Y7
	VANDPD       Y8, Y7, Y7
	VADDPD       Y7, Y1, Y1
	VBROADCASTSD (R11)(AX*1), Y9
	VCMPPD       $4, Y14, Y9, Y10
	VMULPD       Y4, Y9, Y9
	VANDPD       Y10, Y9, Y9
	VADDPD       Y9, Y2, Y2
	VBROADCASTSD (R12)(AX*1), Y11
	VCMPPD       $4, Y14, Y11, Y12
	VMULPD       Y4, Y11, Y11
	VANDPD       Y12, Y11, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ $8, AX
	ADDQ R9, BX
	CMPQ AX, DX
	JL   k4

	VMASKMOVPD Y0, Y15, (DI)
	VMASKMOVPD Y1, Y15, (R13)
	VMASKMOVPD Y2, Y15, (R14)
	VMASKMOVPD Y3, Y15, (R14)(R9*1)
	LEAQ (R12)(DX*1), SI
	LEAQ (R14)(R9*2), DI
	SUBQ $4, CX
	JMP  rows4

rows1:
	TESTQ CX, CX
	JLE   done
	VMASKMOVPD (DI), Y15, Y0
	XORQ AX, AX
	MOVQ R8, BX

k1:
	VMASKMOVPD   (BX), Y15, Y4
	VBROADCASTSD (SI)(AX*1), Y5
	VCMPPD       $4, Y14, Y5, Y6
	VMULPD       Y4, Y5, Y5
	VANDPD       Y6, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ $8, AX
	ADDQ R9, BX
	CMPQ AX, DX
	JL   k1

	VMASKMOVPD Y0, Y15, (DI)
	ADDQ DX, SI
	ADDQ R9, DI
	DECQ CX
	JMP  rows1

done:
	VZEROUPPER
	RET

// mulTNNarrowAVX2 accumulates rows output rows of Aᵀ·B into acc for B
// with m < 4 columns — the weight gradient hᵀ·g of a classifier head
// (a is n×astride with the rows' columns starting at a, b is n×m, acc
// is rows×m, all row-major; n > 0). Lane j of an output row's
// accumulator register is element j's chain: for samples in ascending
// order it adds a[s][i]·b[s][j], and where a[s][i] is ±0 a blend keeps
// the accumulator instead (VCMPPD predicate 4, NEQ_UQ, so NaN entries
// are added as the zero-skip adds them). A blend, not an AND to +0:
// acc is caller memory and may hold −0, which adding +0 would flip.
// mask holds all ones in lanes j < m, so the masked loads and stores
// never touch memory past a row. Output rows run four at a time.
//
// func mulTNNarrowAVX2(acc, a, b *float64, n, rows, astride, m int, mask *[4]int64)
TEXT ·mulTNNarrowAVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ rows+32(FP), DX
	MOVQ astride+40(FP), R9
	MOVQ m+48(FP), R10
	MOVQ mask+56(FP), AX
	VMOVDQU (AX), Y15
	VXORPD  Y14, Y14, Y14
	SHLQ $3, R9            // a row stride in bytes
	SHLQ $3, R10           // b and acc row stride in bytes

rows4:
	CMPQ DX, $4
	JL   rows1
	LEAQ (DI)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	VMASKMOVPD (DI), Y15, Y0
	VMASKMOVPD (R11), Y15, Y1
	VMASKMOVPD (R12), Y15, Y2
	VMASKMOVPD (R13), Y15, Y3
	MOVQ SI, AX
	MOVQ R8, BX
	MOVQ CX, R14

s4:
	VMASKMOVPD   (BX), Y15, Y4
	VBROADCASTSD (AX), Y5
	VCMPPD       $4, Y14, Y5, Y6
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y5
	VBLENDVPD    Y6, Y5, Y0, Y0
	VBROADCASTSD 8(AX), Y7
	VCMPPD       $4, Y14, Y7, Y8
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y1, Y7
	VBLENDVPD    Y8, Y7, Y1, Y1
	VBROADCASTSD 16(AX), Y9
	VCMPPD       $4, Y14, Y9, Y10
	VMULPD       Y4, Y9, Y9
	VADDPD       Y9, Y2, Y9
	VBLENDVPD    Y10, Y9, Y2, Y2
	VBROADCASTSD 24(AX), Y11
	VCMPPD       $4, Y14, Y11, Y12
	VMULPD       Y4, Y11, Y11
	VADDPD       Y11, Y3, Y11
	VBLENDVPD    Y12, Y11, Y3, Y3
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ R14
	JNZ  s4

	VMASKMOVPD Y0, Y15, (DI)
	VMASKMOVPD Y1, Y15, (R11)
	VMASKMOVPD Y2, Y15, (R12)
	VMASKMOVPD Y3, Y15, (R13)
	LEAQ (R13)(R10*1), DI
	ADDQ $32, SI
	SUBQ $4, DX
	JMP  rows4

rows1:
	TESTQ DX, DX
	JLE   done
	VMASKMOVPD (DI), Y15, Y0
	MOVQ SI, AX
	MOVQ R8, BX
	MOVQ CX, R14

s1:
	VMASKMOVPD   (BX), Y15, Y4
	VBROADCASTSD (AX), Y5
	VCMPPD       $4, Y14, Y5, Y6
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y5
	VBLENDVPD    Y6, Y5, Y0, Y0
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ R14
	JNZ  s1

	VMASKMOVPD Y0, Y15, (DI)
	ADDQ R10, DI
	ADDQ $8, SI
	DECQ DX
	JMP  rows1

done:
	VZEROUPPER
	RET

// mulNTNarrowAVX2 computes n rows of A·Bᵀ into o for an inner
// dimension k < 4 — the input gradient g·Wᵀ behind a classifier head
// (a is n×k, b is cols×k, o is n×ostride, all row-major; 0 < k < 4).
// It covers the first j4 columns (j4 ≡ 0 mod 4), four per register:
// lane c of a row's accumulator is element (i, j+c), the chain
// ((+0 + a[i][0]·b[j+c][0]) + a[i][1]·b[j+c][1]) + a[i][2]·b[j+c][2]
// that dotNT computes when k has no 4-aligned prefix. A column group's
// B values are loaded once, strided, and reused across all n rows.
//
// func mulNTNarrowAVX2(o, a, b *float64, n, k, j4, ostride int)
TEXT ·mulNTNarrowAVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ k+32(FP), DX
	MOVQ j4+40(FP), R9
	MOVQ ostride+48(FP), R13
	SHLQ $3, R13           // o row stride in bytes
	MOVQ DX, R10
	SHLQ $3, R10           // k·8: a row stride, b row stride
	LEAQ (R10)(R10*1), R11 // 2k·8
	LEAQ (R11)(R10*1), R12 // 3k·8

group:
	TESTQ R9, R9
	JLE   done
	// B0..B2 (Y4..Y6): column p of b rows j..j+3.
	VMOVSD     (R8), X4
	VMOVHPD    (R8)(R10*1), X4, X4
	VMOVSD     (R8)(R11*1), X7
	VMOVHPD    (R8)(R12*1), X7, X7
	VINSERTF128 $1, X7, Y4, Y4
	CMPQ DX, $2
	JL   rowsinit
	VMOVSD     8(R8), X5
	VMOVHPD    8(R8)(R10*1), X5, X5
	VMOVSD     8(R8)(R11*1), X7
	VMOVHPD    8(R8)(R12*1), X7, X7
	VINSERTF128 $1, X7, Y5, Y5
	CMPQ DX, $3
	JL   rowsinit
	VMOVSD     16(R8), X6
	VMOVHPD    16(R8)(R10*1), X6, X6
	VMOVSD     16(R8)(R11*1), X7
	VMOVHPD    16(R8)(R12*1), X7, X7
	VINSERTF128 $1, X7, Y6, Y6

rowsinit:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ CX, R14

row:
	VXORPD       Y0, Y0, Y0
	VBROADCASTSD (AX), Y1
	VMULPD       Y4, Y1, Y1
	VADDPD       Y1, Y0, Y0
	CMPQ DX, $2
	JL   store
	VBROADCASTSD 8(AX), Y2
	VMULPD       Y5, Y2, Y2
	VADDPD       Y2, Y0, Y0
	CMPQ DX, $3
	JL   store
	VBROADCASTSD 16(AX), Y3
	VMULPD       Y6, Y3, Y3
	VADDPD       Y3, Y0, Y0

store:
	VMOVUPD Y0, (BX)
	ADDQ R10, AX
	ADDQ R13, BX
	DECQ R14
	JNZ  row

	LEAQ (R8)(R10*4), R8   // next four b rows
	ADDQ $32, DI           // next four o columns
	SUBQ $4, R9
	JMP  group

done:
	VZEROUPPER
	RET

// foldShardsAVX2 merges the first n4 elements (n4 ≡ 0 mod 4) of eight
// shard gradient slots into the first, in the training engine's tree
// order ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) with each left operand
// first as in the scalar loop, and stores zeros to slots 1–7.
//
// func foldShardsAVX2(p *[8]*float64, n4 int)
TEXT ·foldShardsAVX2(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ 0(AX), DI
	MOVQ 8(AX), SI
	MOVQ 16(AX), R8
	MOVQ 24(AX), R9
	MOVQ 32(AX), R10
	MOVQ 40(AX), R11
	MOVQ 48(AX), R12
	MOVQ 56(AX), R13
	MOVQ n4+8(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

fold:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD (R8)(AX*1), Y1
	VADDPD  (R9)(AX*1), Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R10)(AX*1), Y2
	VADDPD  (R11)(AX*1), Y2, Y2
	VMOVUPD (R12)(AX*1), Y3
	VADDPD  (R13)(AX*1), Y3, Y3
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y15, (SI)(AX*1)
	VMOVUPD Y15, (R8)(AX*1)
	VMOVUPD Y15, (R9)(AX*1)
	VMOVUPD Y15, (R10)(AX*1)
	VMOVUPD Y15, (R11)(AX*1)
	VMOVUPD Y15, (R12)(AX*1)
	VMOVUPD Y15, (R13)(AX*1)
	ADDQ $32, AX
	JMP  fold

done:
	VZEROUPPER
	RET

// adamAVX2 applies one Adam step to the first n4 elements (n4 ≡ 0
// mod 4) of w, with gradient grad and moments m and v. k holds β1, 1−β1,
// β2, 1−β2, lr, ε and this step's bias corrections c1 and c2. Each
// lane runs Adam.update's scalar operations in their order, left
// operand first, with no FMA:
//
//	m ← β1·m + (1−β1)·g
//	v ← β2·v + ((1−β2)·g)·g
//	w ← w − (lr·(m/c1)) / (√(v/c2) + ε)
//
// VMULPD, VADDPD, VSUBPD, VDIVPD and VSQRTPD round exactly like their
// scalar forms, so the result is bit-identical.
//
// func adamAVX2(w, grad, m, v *float64, n4 int, k *[8]float64)
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n4+32(FP), CX
	MOVQ k+40(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	SHLQ $3, CX
	XORQ AX, AX

adam:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (R8)(AX*1), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)(AX*1)
	VMULPD  (R9)(AX*1), Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)(AX*1)
	VDIVPD  Y14, Y1, Y1
	VDIVPD  Y15, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3
	VMULPD  Y1, Y12, Y1
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*1), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ $32, AX
	JMP  adam

done:
	VZEROUPPER
	RET
