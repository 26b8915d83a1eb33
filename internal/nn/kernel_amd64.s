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
