// AVX2 plane kernels. Each TEXT below is the exact vector transcription of
// its *Scalar sibling in simd.go: identical per-element multiply/add order,
// VMULPD/VADDPD only — never FMA, whose skipped intermediate rounding would
// break the SoA==AoS bitwise parity pinned by the solver tests. R14 (g) and
// X15 are never touched. All kernels are NOSPLIT leaves with no locals.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// func axpyCplxAVX2(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64)
// dstRe[i] += cr*sr - ci*si; dstIm[i] += cr*si + ci*sr
TEXT ·axpyCplxAVX2(SB), NOSPLIT, $0-112
	MOVQ         dstRe_base+0(FP), DI
	MOVQ         dstRe_len+8(FP), CX
	MOVQ         dstIm_base+24(FP), SI
	MOVQ         srcRe_base+48(FP), R8
	MOVQ         srcIm_base+72(FP), R9
	VBROADCASTSD cr+96(FP), Y12
	VBROADCASTSD ci+104(FP), Y13
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	CMPQ         BX, DX
	JGE          axctail

axcloop:
	VMOVUPD (R8)(BX*8), Y0
	VMOVUPD (R9)(BX*8), Y1
	VMULPD  Y12, Y0, Y2
	VMULPD  Y13, Y1, Y3
	VSUBPD  Y3, Y2, Y2
	VADDPD  (DI)(BX*8), Y2, Y2
	VMOVUPD Y2, (DI)(BX*8)
	VMULPD  Y12, Y1, Y4
	VMULPD  Y13, Y0, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (SI)(BX*8), Y4, Y4
	VMOVUPD Y4, (SI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, DX
	JLT     axcloop

axctail:
	CMPQ BX, CX
	JGE  axcdone

axctailloop:
	VMOVSD (R8)(BX*8), X0
	VMOVSD (R9)(BX*8), X1
	VMULSD X12, X0, X2
	VMULSD X13, X1, X3
	VSUBSD X3, X2, X2
	VADDSD (DI)(BX*8), X2, X2
	VMOVSD X2, (DI)(BX*8)
	VMULSD X12, X1, X4
	VMULSD X13, X0, X5
	VADDSD X5, X4, X4
	VADDSD (SI)(BX*8), X4, X4
	VMOVSD X4, (SI)(BX*8)
	INCQ   BX
	CMPQ   BX, CX
	JLT    axctailloop

axcdone:
	VZEROUPPER
	RET

// Column-lane kernels: one vector spans four columns of a block row, the
// per-column coefficients sit in the matching lanes. Rows are walked by
// advancing the plane pointers one row stride at a time; BX indexes the
// column inside the row for planes and coefficient arrays alike. The
// nb&3 trailing columns run the same instruction sequence on scalar lanes.
// A frozen column (mask lane clear) gets its old element blended back, so
// whatever it holds, Inf/NaN included, is stored bit-unchanged.

// func axpyColsAVX2(dstRe, dstIm, srcRe, srcIm, aRe, aIm []float64, mask []uint64)
// per row i, column c with mask[c] set:
// dstRe += aRe[c]*sr - aIm[c]*si; dstIm += aRe[c]*si + aIm[c]*sr
TEXT ·axpyColsAVX2(SB), NOSPLIT, $0-168
	MOVQ  dstRe_base+0(FP), DI
	MOVQ  dstRe_len+8(FP), CX
	MOVQ  dstIm_base+24(FP), SI
	MOVQ  srcRe_base+48(FP), R8
	MOVQ  srcIm_base+72(FP), R9
	MOVQ  aRe_base+96(FP), R10
	MOVQ  aRe_len+104(FP), R13
	MOVQ  aIm_base+120(FP), R11
	MOVQ  mask_base+144(FP), R12
	TESTQ R13, R13
	JEQ   axcolsdone
	LEAQ  (DI)(CX*8), CX        // end of dstRe
	MOVQ  R13, DX
	ANDQ  $-4, DX               // columns covered by whole vectors
	MOVQ  R13, AX
	SHLQ  $3, AX                // row stride in bytes

axcolsrow:
	CMPQ DI, CX
	JGE  axcolsdone
	XORQ BX, BX
	CMPQ BX, DX
	JGE  axcolstail

axcolsvec:
	VMOVUPD   (R8)(BX*8), Y0
	VMOVUPD   (R9)(BX*8), Y1
	VMOVUPD   (R10)(BX*8), Y2
	VMOVUPD   (R11)(BX*8), Y3
	VMOVUPD   (R12)(BX*8), Y4
	VMULPD    Y2, Y0, Y5
	VMULPD    Y3, Y1, Y6
	VSUBPD    Y6, Y5, Y5
	VMOVUPD   (DI)(BX*8), Y7
	VADDPD    Y5, Y7, Y5
	VBLENDVPD Y4, Y5, Y7, Y5
	VMOVUPD   Y5, (DI)(BX*8)
	VMULPD    Y2, Y1, Y5
	VMULPD    Y3, Y0, Y6
	VADDPD    Y6, Y5, Y5
	VMOVUPD   (SI)(BX*8), Y7
	VADDPD    Y5, Y7, Y5
	VBLENDVPD Y4, Y5, Y7, Y5
	VMOVUPD   Y5, (SI)(BX*8)
	ADDQ      $4, BX
	CMPQ      BX, DX
	JLT       axcolsvec

axcolstail:
	CMPQ BX, R13
	JGE  axcolsnext

axcolstailloop:
	VMOVSD    (R8)(BX*8), X0
	VMOVSD    (R9)(BX*8), X1
	VMOVSD    (R10)(BX*8), X2
	VMOVSD    (R11)(BX*8), X3
	VMOVSD    (R12)(BX*8), X4
	VMULSD    X2, X0, X5
	VMULSD    X3, X1, X6
	VSUBSD    X6, X5, X5
	VMOVSD    (DI)(BX*8), X7
	VADDSD    X5, X7, X5
	VBLENDVPD X4, X5, X7, X5
	VMOVSD    X5, (DI)(BX*8)
	VMULSD    X2, X1, X5
	VMULSD    X3, X0, X6
	VADDSD    X6, X5, X5
	VMOVSD    (SI)(BX*8), X7
	VADDSD    X5, X7, X5
	VBLENDVPD X4, X5, X7, X5
	VMOVSD    X5, (SI)(BX*8)
	INCQ      BX
	CMPQ      BX, R13
	JLT       axcolstailloop

axcolsnext:
	ADDQ AX, DI
	ADDQ AX, SI
	ADDQ AX, R8
	ADDQ AX, R9
	JMP  axcolsrow

axcolsdone:
	VZEROUPPER
	RET

// func xpayColsAVX2(pRe, pIm, rRe, rIm, bRe, bIm []float64, mask []uint64)
// per row i, column c with mask[c] set:
// pRe = rRe + (bRe[c]*pr - bIm[c]*pi); pIm = rIm + (bRe[c]*pi + bIm[c]*pr)
TEXT ·xpayColsAVX2(SB), NOSPLIT, $0-168
	MOVQ  pRe_base+0(FP), DI
	MOVQ  pRe_len+8(FP), CX
	MOVQ  pIm_base+24(FP), SI
	MOVQ  rRe_base+48(FP), R8
	MOVQ  rIm_base+72(FP), R9
	MOVQ  bRe_base+96(FP), R10
	MOVQ  bRe_len+104(FP), R13
	MOVQ  bIm_base+120(FP), R11
	MOVQ  mask_base+144(FP), R12
	TESTQ R13, R13
	JEQ   xpcolsdone
	LEAQ  (DI)(CX*8), CX
	MOVQ  R13, DX
	ANDQ  $-4, DX
	MOVQ  R13, AX
	SHLQ  $3, AX

xpcolsrow:
	CMPQ DI, CX
	JGE  xpcolsdone
	XORQ BX, BX
	CMPQ BX, DX
	JGE  xpcolstail

xpcolsvec:
	VMOVUPD   (DI)(BX*8), Y0
	VMOVUPD   (SI)(BX*8), Y1
	VMOVUPD   (R10)(BX*8), Y2
	VMOVUPD   (R11)(BX*8), Y3
	VMOVUPD   (R12)(BX*8), Y4
	VMULPD    Y2, Y0, Y5
	VMULPD    Y3, Y1, Y6
	VSUBPD    Y6, Y5, Y5
	VADDPD    (R8)(BX*8), Y5, Y5
	VBLENDVPD Y4, Y5, Y0, Y5
	VMOVUPD   Y5, (DI)(BX*8)
	VMULPD    Y2, Y1, Y5
	VMULPD    Y3, Y0, Y6
	VADDPD    Y6, Y5, Y5
	VADDPD    (R9)(BX*8), Y5, Y5
	VBLENDVPD Y4, Y5, Y1, Y5
	VMOVUPD   Y5, (SI)(BX*8)
	ADDQ      $4, BX
	CMPQ      BX, DX
	JLT       xpcolsvec

xpcolstail:
	CMPQ BX, R13
	JGE  xpcolsnext

xpcolstailloop:
	VMOVSD    (DI)(BX*8), X0
	VMOVSD    (SI)(BX*8), X1
	VMOVSD    (R10)(BX*8), X2
	VMOVSD    (R11)(BX*8), X3
	VMOVSD    (R12)(BX*8), X4
	VMULSD    X2, X0, X5
	VMULSD    X3, X1, X6
	VSUBSD    X6, X5, X5
	VADDSD    (R8)(BX*8), X5, X5
	VBLENDVPD X4, X5, X0, X5
	VMOVSD    X5, (DI)(BX*8)
	VMULSD    X2, X1, X5
	VMULSD    X3, X0, X6
	VADDSD    X6, X5, X5
	VADDSD    (R9)(BX*8), X5, X5
	VBLENDVPD X4, X5, X1, X5
	VMOVSD    X5, (SI)(BX*8)
	INCQ      BX
	CMPQ      BX, R13
	JLT       xpcolstailloop

xpcolsnext:
	ADDQ AX, DI
	ADDQ AX, SI
	ADDQ AX, R8
	ADDQ AX, R9
	JMP  xpcolsrow

xpcolsdone:
	VZEROUPPER
	RET

// func dotColsAVX2(dRe, dIm, xRe, xIm, yRe, yIm []float64)
// dRe[c], dIm[c] zeroed, then per row i in order:
// dRe[c] += xr*yr + xi*yi; dIm[c] += xr*yi - xi*yr
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-144
	MOVQ   dRe_base+0(FP), DI
	MOVQ   dRe_len+8(FP), R13
	MOVQ   dIm_base+24(FP), SI
	MOVQ   xRe_base+48(FP), R8
	MOVQ   xRe_len+56(FP), CX
	MOVQ   xIm_base+72(FP), R9
	MOVQ   yRe_base+96(FP), R10
	MOVQ   yIm_base+120(FP), R11
	TESTQ  R13, R13
	JEQ    dotcolsdone
	LEAQ   (R8)(CX*8), CX       // end of xRe
	MOVQ   R13, DX
	ANDQ   $-4, DX
	MOVQ   R13, AX
	SHLQ   $3, AX
	VXORPD X0, X0, X0
	XORQ   BX, BX

dotcolszero:
	VMOVSD X0, (DI)(BX*8)
	VMOVSD X0, (SI)(BX*8)
	INCQ   BX
	CMPQ   BX, R13
	JLT    dotcolszero

dotcolsrow:
	CMPQ R8, CX
	JGE  dotcolsdone
	XORQ BX, BX
	CMPQ BX, DX
	JGE  dotcolstail

dotcolsvec:
	VMOVUPD (R8)(BX*8), Y0
	VMOVUPD (R9)(BX*8), Y1
	VMOVUPD (R10)(BX*8), Y2
	VMOVUPD (R11)(BX*8), Y3
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (DI)(BX*8), Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	VMULPD  Y3, Y0, Y4
	VMULPD  Y2, Y1, Y5
	VSUBPD  Y5, Y4, Y4
	VADDPD  (SI)(BX*8), Y4, Y4
	VMOVUPD Y4, (SI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, DX
	JLT     dotcolsvec

dotcolstail:
	CMPQ BX, R13
	JGE  dotcolsnext

dotcolstailloop:
	VMOVSD (R8)(BX*8), X0
	VMOVSD (R9)(BX*8), X1
	VMOVSD (R10)(BX*8), X2
	VMOVSD (R11)(BX*8), X3
	VMULSD X2, X0, X4
	VMULSD X3, X1, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(BX*8), X4, X4
	VMOVSD X4, (DI)(BX*8)
	VMULSD X3, X0, X4
	VMULSD X2, X1, X5
	VSUBSD X5, X4, X4
	VADDSD (SI)(BX*8), X4, X4
	VMOVSD X4, (SI)(BX*8)
	INCQ   BX
	CMPQ   BX, R13
	JLT    dotcolstailloop

dotcolsnext:
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	JMP  dotcolsrow

dotcolsdone:
	VZEROUPPER
	RET
