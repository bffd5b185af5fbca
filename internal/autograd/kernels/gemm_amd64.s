//go:build amd64 && !purego

#include "textflag.h"

// One p step of a tile: the broadcast a element times four (MULADD) or
// eight (MULADDZ) b columns, rounded, then added to the tile's
// accumulator, rounded again. Two instructions on purpose: a fused
// multiply-add would round once.
#define MULADD(off, tmp, acc) \
	VMULPD off(AX), Y8, tmp; \
	VADDPD tmp, acc, acc

#define MULADDZ(off, tmp, acc) \
	VMULPD off(AX), Z8, tmp; \
	VADDPD tmp, acc, acc

// func gemmAddAVX2(dst, a, b *float64, m, k, n, aRow, aCol int)
//
// dst[i][j] += Σ_p a[i·aRow + p·aCol] · b[p][j] for i < m, j < n, with
// dst and b row-major at stride n. A YMM register holds four adjacent
// columns j of one output row, a ZMM register eight — different output
// elements, never partial sums of one — and every element is loaded from
// dst, takes its k terms in ascending p, and is stored once. Where
// zmmTiles is set a row runs ZMM tiles of 64, 32 and 8 columns first, so
// at most seven columns are left for the YMM tile of 4 and the scalar
// tail; otherwise it runs YMM tiles of 32, 16 and 4. m, k and n must be
// > 0.
//
//	DI  dst row             SI  one past the row's last a element
//	DX  b                   R8  rows left
//	R9  k·aCol bytes        R11 aRow bytes
//	R12 aCol bytes          R13 n bytes (row stride of dst and b)
//	BX  byte offset of the tile's first column
//	CX  columns left        AX  b row p at the tile's first column
//	R10 byte offset of a's p-th element back from SI, −R9 up to 0
TEXT ·gemmAddAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R13
	MOVQ aRow+48(FP), R11
	MOVQ aCol+56(FP), R12
	SHLQ $3, R13
	SHLQ $3, R11
	SHLQ $3, R12
	IMULQ R12, R9
	ADDQ R9, SI

row:
	XORQ BX, BX
	MOVQ n+40(FP), CX
	CMPB ·zmmTiles(SB), $0
	JEQ  tile32

zmm64:
	CMPQ CX, $64
	JLT  zmm32
	VMOVUPD 0(DI)(BX*1), Z0
	VMOVUPD 64(DI)(BX*1), Z1
	VMOVUPD 128(DI)(BX*1), Z2
	VMOVUPD 192(DI)(BX*1), Z3
	VMOVUPD 256(DI)(BX*1), Z4
	VMOVUPD 320(DI)(BX*1), Z5
	VMOVUPD 384(DI)(BX*1), Z6
	VMOVUPD 448(DI)(BX*1), Z7
	LEAQ (DX)(BX*1), AX
	MOVQ R9, R10
	NEGQ R10

pz64:
	VBROADCASTSD (SI)(R10*1), Z8
	MULADDZ(0, Z9, Z0)
	MULADDZ(64, Z10, Z1)
	MULADDZ(128, Z11, Z2)
	MULADDZ(192, Z12, Z3)
	MULADDZ(256, Z13, Z4)
	MULADDZ(320, Z14, Z5)
	MULADDZ(384, Z15, Z6)
	MULADDZ(448, Z9, Z7)
	ADDQ R13, AX
	ADDQ R12, R10
	JNZ  pz64
	VMOVUPD Z0, 0(DI)(BX*1)
	VMOVUPD Z1, 64(DI)(BX*1)
	VMOVUPD Z2, 128(DI)(BX*1)
	VMOVUPD Z3, 192(DI)(BX*1)
	VMOVUPD Z4, 256(DI)(BX*1)
	VMOVUPD Z5, 320(DI)(BX*1)
	VMOVUPD Z6, 384(DI)(BX*1)
	VMOVUPD Z7, 448(DI)(BX*1)
	ADDQ $512, BX
	SUBQ $64, CX
	JMP  zmm64

zmm32:
	CMPQ CX, $32
	JLT  zmm8
	VMOVUPD 0(DI)(BX*1), Z0
	VMOVUPD 64(DI)(BX*1), Z1
	VMOVUPD 128(DI)(BX*1), Z2
	VMOVUPD 192(DI)(BX*1), Z3
	LEAQ (DX)(BX*1), AX
	MOVQ R9, R10
	NEGQ R10

pz32:
	VBROADCASTSD (SI)(R10*1), Z8
	MULADDZ(0, Z9, Z0)
	MULADDZ(64, Z10, Z1)
	MULADDZ(128, Z11, Z2)
	MULADDZ(192, Z12, Z3)
	ADDQ R13, AX
	ADDQ R12, R10
	JNZ  pz32
	VMOVUPD Z0, 0(DI)(BX*1)
	VMOVUPD Z1, 64(DI)(BX*1)
	VMOVUPD Z2, 128(DI)(BX*1)
	VMOVUPD Z3, 192(DI)(BX*1)
	ADDQ $256, BX
	SUBQ $32, CX

zmm8:
	CMPQ CX, $8
	JLT  tile4
	VMOVUPD (DI)(BX*1), Z0
	LEAQ (DX)(BX*1), AX
	MOVQ R9, R10
	NEGQ R10

pz8:
	VBROADCASTSD (SI)(R10*1), Z8
	MULADDZ(0, Z9, Z0)
	ADDQ R13, AX
	ADDQ R12, R10
	JNZ  pz8
	VMOVUPD Z0, (DI)(BX*1)
	ADDQ $64, BX
	SUBQ $8, CX
	JMP  zmm8

tile32:
	CMPQ CX, $32
	JLT  tile16
	VMOVUPD 0(DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	VMOVUPD 128(DI)(BX*1), Y4
	VMOVUPD 160(DI)(BX*1), Y5
	VMOVUPD 192(DI)(BX*1), Y6
	VMOVUPD 224(DI)(BX*1), Y7
	LEAQ (DX)(BX*1), AX
	MOVQ R9, R10
	NEGQ R10

p32:
	VBROADCASTSD (SI)(R10*1), Y8
	MULADD(0, Y9, Y0)
	MULADD(32, Y10, Y1)
	MULADD(64, Y11, Y2)
	MULADD(96, Y12, Y3)
	MULADD(128, Y13, Y4)
	MULADD(160, Y14, Y5)
	MULADD(192, Y15, Y6)
	MULADD(224, Y9, Y7)
	ADDQ R13, AX
	ADDQ R12, R10
	JNZ  p32
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	VMOVUPD Y4, 128(DI)(BX*1)
	VMOVUPD Y5, 160(DI)(BX*1)
	VMOVUPD Y6, 192(DI)(BX*1)
	VMOVUPD Y7, 224(DI)(BX*1)
	ADDQ $256, BX
	SUBQ $32, CX
	JMP  tile32

tile16:
	CMPQ CX, $16
	JLT  tile4
	VMOVUPD 0(DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	LEAQ (DX)(BX*1), AX
	MOVQ R9, R10
	NEGQ R10

p16:
	VBROADCASTSD (SI)(R10*1), Y8
	MULADD(0, Y9, Y0)
	MULADD(32, Y10, Y1)
	MULADD(64, Y11, Y2)
	MULADD(96, Y12, Y3)
	ADDQ R13, AX
	ADDQ R12, R10
	JNZ  p16
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	SUBQ $16, CX

tile4:
	CMPQ CX, $4
	JLT  tile1
	VMOVUPD (DI)(BX*1), Y0
	LEAQ (DX)(BX*1), AX
	MOVQ R9, R10
	NEGQ R10

p4:
	VBROADCASTSD (SI)(R10*1), Y8
	MULADD(0, Y9, Y0)
	ADDQ R13, AX
	ADDQ R12, R10
	JNZ  p4
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  tile4

tile1:
	TESTQ CX, CX
	JZ   next
	VMOVSD (DI)(BX*1), X0
	LEAQ (DX)(BX*1), AX
	MOVQ R9, R10
	NEGQ R10

p1:
	VMOVSD (SI)(R10*1), X8
	VMULSD (AX), X8, X9
	VADDSD X9, X0, X0
	ADDQ R13, AX
	ADDQ R12, R10
	JNZ  p1
	VMOVSD X0, (DI)(BX*1)
	ADDQ $8, BX
	DECQ CX
	JMP  tile1

next:
	ADDQ R13, DI
	ADDQ R11, SI
	DECQ R8
	JNZ  row
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
