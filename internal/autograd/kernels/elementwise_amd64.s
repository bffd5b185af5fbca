//go:build amd64 && !purego

#include "textflag.h"

// func adamAVX2(data, grad, m, v *float64, n int, b1, a1, b2, a2, lr, eps, c1, c2 float64)
//
// One Adam update of n elements, four per iteration, with a1 = 1−b1 and
// a2 = 1−b2 computed by the caller:
//
//	m' = b1·m + a1·g
//	v' = b2·v + (a2·g)·g
//	p  = p − (lr·(m'/c1)) / (√(v'/c2) + eps)
//
// Each operation is one VMULPD, VADDPD, VDIVPD, VSQRTPD or VSUBPD, in
// the order of the Go loop (adamGo) — no FMA, no reciprocal estimate —
// so every lane is that loop's float. n must be a positive multiple of 4.
//
//	DI  data    SI  grad    DX  m    R8  v
//	BX  byte offset of the current four elements
//	CX  elements left
//	Y8  b1  Y9  a1  Y10 b2  Y11 a2  Y12 lr  Y13 eps  Y14 c1  Y15 c2
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ data+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y8
	VBROADCASTSD a1+48(FP), Y9
	VBROADCASTSD b2+56(FP), Y10
	VBROADCASTSD a2+64(FP), Y11
	VBROADCASTSD lr+72(FP), Y12
	VBROADCASTSD eps+80(FP), Y13
	VBROADCASTSD c1+88(FP), Y14
	VBROADCASTSD c2+96(FP), Y15
	XORQ BX, BX

loop:
	VMOVUPD (SI)(BX*1), Y0
	VMULPD  (DX)(BX*1), Y8, Y1 // b1·m
	VMULPD  Y0, Y9, Y2         // a1·g
	VADDPD  Y2, Y1, Y1         // m'
	VMOVUPD Y1, (DX)(BX*1)
	VMULPD  (R8)(BX*1), Y10, Y3 // b2·v
	VMULPD  Y0, Y11, Y4         // a2·g
	VMULPD  Y0, Y4, Y4          // (a2·g)·g
	VADDPD  Y4, Y3, Y3          // v'
	VMOVUPD Y3, (R8)(BX*1)
	VDIVPD  Y14, Y1, Y1 // m'/c1
	VDIVPD  Y15, Y3, Y3 // v'/c2
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3 // √(v'/c2) + eps
	VMULPD  Y12, Y1, Y1 // lr·(m'/c1)
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(BX*1), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, CX
	JNZ     loop
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float64, n int)
//
// dst[i] = a[i] + b[i] for i < n, sixteen and then four at a time; every
// group is loaded before it is stored, so dst may be a or b itself (but
// must not otherwise overlap them). n must be a positive multiple of 4.
//
//	DI  dst    SI  a    DX  b
//	BX  byte offset    CX  elements left
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX

add16:
	CMPQ    CX, $16
	JLT     add4
	VMOVUPD 0(SI)(BX*1), Y0
	VMOVUPD 32(SI)(BX*1), Y1
	VMOVUPD 64(SI)(BX*1), Y2
	VMOVUPD 96(SI)(BX*1), Y3
	VADDPD  0(DX)(BX*1), Y0, Y0
	VADDPD  32(DX)(BX*1), Y1, Y1
	VADDPD  64(DX)(BX*1), Y2, Y2
	VADDPD  96(DX)(BX*1), Y3, Y3
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	SUBQ    $16, CX
	JMP     add16

add4:
	TESTQ   CX, CX
	JZ      done
	VMOVUPD (SI)(BX*1), Y0
	VADDPD  (DX)(BX*1), Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     add4

done:
	VZEROUPPER
	RET
