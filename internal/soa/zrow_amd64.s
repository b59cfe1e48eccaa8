// AVX2 interleaved-complex row kernels; see zrow.go. Each TEXT is the exact
// transcription of its *Scalar sibling: per element p1 = ar*x,
// p2 = ai*swap(x), VADDSUBPD for the complex product as Go forms it, then
// one VSUBPD or VADDPD into dst — VMULPD/VADDSUBPD/VADDPD/VSUBPD only,
// never FMA. Four elements per iteration in two ymm, then one ymm of two,
// then one xmm element. R14 (g) and X15 are never touched.

#include "textflag.h"

// ZROWSETUP loads DI = dst, SI = src, CX = the row's byte length, Y12 = ar
// and Y13 = ai in every lane, BX = 0 and DX = the bytes of whole
// four-element steps.
#define ZROWSETUP \
	MOVQ dst_base+0(FP), DI; \
	MOVQ dst_len+8(FP), CX; \
	MOVQ src_base+24(FP), SI; \
	VBROADCASTSD ar+48(FP), Y12; \
	VBROADCASTSD ai+56(FP), Y13; \
	SHLQ $4, CX; \
	XORQ BX, BX; \
	MOVQ CX, DX; \
	ANDQ $-64, DX

// ZPROD sets Yp to a*x for the two elements x at off(SI)(BX*1), Yt scratch.
#define ZPROD(off, Yp, Yt) \
	VMOVUPD off(SI)(BX*1), Yp; \
	VPERMILPD $5, Yp, Yt; \
	VMULPD Y12, Yp, Yp; \
	VMULPD Y13, Yt, Yt; \
	VADDSUBPD Yt, Yp, Yp

// func subMulRowAVX2(dst, src []complex128, ar, ai float64)
// dst[k] -= complex(ar, ai)*src[k]
TEXT ·subMulRowAVX2(SB), NOSPLIT, $0-64
	ZROWSETUP
	CMPQ BX, DX
	JGE  smrpair

smrloop:
	ZPROD(0, Y0, Y1)
	ZPROD(32, Y2, Y3)
	VMOVUPD (DI)(BX*1), Y4
	VMOVUPD 32(DI)(BX*1), Y5
	VSUBPD  Y0, Y4, Y4
	VSUBPD  Y2, Y5, Y5
	VMOVUPD Y4, (DI)(BX*1)
	VMOVUPD Y5, 32(DI)(BX*1)
	ADDQ    $64, BX
	CMPQ    BX, DX
	JLT     smrloop

smrpair:
	LEAQ 32(BX), DX
	CMPQ DX, CX
	JGT  smrone
	ZPROD(0, Y0, Y1)
	VMOVUPD (DI)(BX*1), Y4
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	MOVQ    DX, BX

smrone:
	CMPQ BX, CX
	JGE  smrdone
	VMOVUPD   (SI)(BX*1), X0
	VPERMILPD $1, X0, X1
	VMULPD    X12, X0, X0
	VMULPD    X13, X1, X1
	VADDSUBPD X1, X0, X0
	VMOVUPD   (DI)(BX*1), X4
	VSUBPD    X0, X4, X4
	VMOVUPD   X4, (DI)(BX*1)

smrdone:
	VZEROUPPER
	RET

// func addMulRowAVX2(dst, src []complex128, ar, ai float64)
// dst[k] += complex(ar, ai)*src[k]
TEXT ·addMulRowAVX2(SB), NOSPLIT, $0-64
	ZROWSETUP
	CMPQ BX, DX
	JGE  amrpair

amrloop:
	ZPROD(0, Y0, Y1)
	ZPROD(32, Y2, Y3)
	VMOVUPD (DI)(BX*1), Y4
	VMOVUPD 32(DI)(BX*1), Y5
	VADDPD  Y0, Y4, Y4
	VADDPD  Y2, Y5, Y5
	VMOVUPD Y4, (DI)(BX*1)
	VMOVUPD Y5, 32(DI)(BX*1)
	ADDQ    $64, BX
	CMPQ    BX, DX
	JLT     amrloop

amrpair:
	LEAQ 32(BX), DX
	CMPQ DX, CX
	JGT  amrone
	ZPROD(0, Y0, Y1)
	VMOVUPD (DI)(BX*1), Y4
	VADDPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	MOVQ    DX, BX

amrone:
	CMPQ BX, CX
	JGE  amrdone
	VMOVUPD   (SI)(BX*1), X0
	VPERMILPD $1, X0, X1
	VMULPD    X12, X0, X0
	VMULPD    X13, X1, X1
	VADDSUBPD X1, X0, X0
	VMOVUPD   (DI)(BX*1), X4
	VADDPD    X0, X4, X4
	VMOVUPD   X4, (DI)(BX*1)

amrdone:
	VZEROUPPER
	RET
