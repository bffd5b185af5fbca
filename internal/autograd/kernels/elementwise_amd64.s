//go:build amd64 && !purego

#include "textflag.h"

// func adamAVX2(data, grad, m, v *float64, n int, b1, a1, b2, a2, lr, eps, c1, c2 float64, zeroSkip bool)
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
// so every lane is that loop's float. With zeroSkip, a group whose four
// m' and four v' are all bitwise +0 skips the divisions and the square
// root: the caller sets it only where lr, eps, c1 and c2 make that
// update exactly +0, and the group still subtracts +0 from p, as the
// loop does (a signalling NaN in p comes out quiet, −0 stays −0). A −0
// m' fails the bitwise test and takes the full path, whose update is −0.
// n must be a positive multiple of 4.
//
//	DI  data    SI  grad    DX  m    R8  v
//	BX  byte offset of the current four elements
//	CX  elements left       R9  zeroSkip
//	Y8  b1  Y9  a1  Y10 b2  Y11 a2  Y12 lr  Y13 eps  Y14 c1  Y15 c2
TEXT ·adamAVX2(SB), NOSPLIT, $0-105
	MOVQ data+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	MOVBQZX zeroSkip+104(FP), R9
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
	TESTQ   R9, R9
	JZ      full
	VORPD   Y1, Y3, Y4
	VPTEST  Y4, Y4
	JZ      apply // every bit of m' and v' zero: Y4 is +0, the update

full:
	VDIVPD  Y14, Y1, Y1 // m'/c1
	VDIVPD  Y15, Y3, Y3 // v'/c2
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3 // √(v'/c2) + eps
	VMULPD  Y12, Y1, Y1 // lr·(m'/c1)
	VDIVPD  Y3, Y1, Y4

apply:
	VMOVUPD (DI)(BX*1), Y2
	VSUBPD  Y4, Y2, Y2
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

// func reluAVX2(dst, a *float64, n int)
//
// dst[i] = a[i] when a[i] > 0 and +0 otherwise, for i < n, sixteen and
// then four at a time: VCMPPD with GT_OQ against +0 gives an all-ones
// lane where a[i] > 0 and a zero lane where a[i] ≤ 0 or is NaN, and
// VANDPD keeps a[i]'s bits under that mask — the Go loop's
// bits & positive(v), signs of zero and NaN payloads included. Every
// group is loaded before it is stored, so dst may be a itself (but must
// not otherwise overlap it). n must be a positive multiple of 4.
//
//	DI  dst    SI  a    BX  byte offset    CX  elements left
//	Y15 +0
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ   BX, BX

relu16:
	CMPQ    CX, $16
	JLT     relu4
	VMOVUPD 0(SI)(BX*1), Y0
	VMOVUPD 32(SI)(BX*1), Y1
	VMOVUPD 64(SI)(BX*1), Y2
	VMOVUPD 96(SI)(BX*1), Y3
	VCMPPD  $0x1e, Y15, Y0, Y4 // a > +0, ordered, quiet
	VCMPPD  $0x1e, Y15, Y1, Y5
	VCMPPD  $0x1e, Y15, Y2, Y6
	VCMPPD  $0x1e, Y15, Y3, Y7
	VANDPD  Y4, Y0, Y0
	VANDPD  Y5, Y1, Y1
	VANDPD  Y6, Y2, Y2
	VANDPD  Y7, Y3, Y3
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	SUBQ    $16, CX
	JMP     relu16

relu4:
	TESTQ   CX, CX
	JZ      reludone
	VMOVUPD (SI)(BX*1), Y0
	VCMPPD  $0x1e, Y15, Y0, Y4
	VANDPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     relu4

reludone:
	VZEROUPPER
	RET
