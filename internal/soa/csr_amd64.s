// AVX2 arms of the row-ordered CSR kernels (csr.go). Rows run outermost;
// in a row the columns go eight at a time (two 4-lane vectors per plane),
// then four, then the last nb%4 one at a time with the scalar VEX forms,
// each chunk walking the row's entries in stored order. Each TEXT is the
// exact transcription of its *Scalar sibling: per element the same
// multiplies and adds in the same order, VMULPD/VADDPD/VSUBPD only, never
// FMA (see simd_amd64.s). R14 (g) and X15 are never touched.
//
// Registers: R8/R9 the out planes, R10/R11 the v planes, DX the row stride
// nb*8, SI the row offset i*stride, AX the column offset in the row, R12
// &ptr[i], R13 the entries, CX/BX the byte offsets of the row's first and
// end entry, DI scratch. The locals hold &ptr[rows] and, for the shifted
// kernel, the distance from ptr to the diagonal.

#include "textflag.h"
#include "go_asm.h"

// CSRROWS loads the planes, the stride and the table from a at the given
// argument offset, and stores &ptr[rows] in the local pend.
#define CSRROWS(aoff) \
	MOVQ oRe_base+0(FP), R8; \
	MOVQ oIm_base+24(FP), R9; \
	MOVQ vRe_base+48(FP), R10; \
	MOVQ vIm_base+72(FP), R11; \
	MOVQ nb+96(FP), DX; \
	SHLQ $3, DX; \
	MOVQ aoff(FP), DI; \
	MOVQ CSR_ptr(DI), R12; \
	MOVQ CSR_ptr+8(DI), BX; \
	MOVQ CSR_ents(DI), R13; \
	LEAQ -8(R12)(BX*8), BX; \
	MOVQ BX, pend-8(SP); \
	XORQ SI, SI

// ROWENTS sets CX and BX to the byte offsets of row i's first and end entry.
#define ROWENTS \
	MOVQ (R12), CX; \
	MOVQ 8(R12), BX; \
	SHLQ $4, CX; \
	SHLQ $4, BX

// ENTCOL sets DI to the offset of column AX in the row of the entry at CX.
#define ENTCOL \
	MOVQ  (R13)(CX*1), DI; \
	IMULQ DX, DI; \
	ADDQ  AX, DI

// func csrShiftedAVX2(oRe, oIm, vRe, vIm []float64, nb int, shift float64, d []float64, a *CSR)
// out[i, c] = (shift - d[i])*v[i, c], then out[i, c] -= val*v[col, c] per
// entry of row i.
TEXT ·csrShiftedAVX2(SB), NOSPLIT, $16-144
	CSRROWS(a+136)
	VMOVSD shift+104(FP), X1
	MOVQ   d_base+112(FP), BX
	SUBQ   R12, BX
	MOVQ   BX, dofs-16(SP)       // d[i] at (R12)(BX*1)
	CMPQ   R12, pend-8(SP)
	JGE    shdone

shrow:
	MOVQ         dofs-16(SP), DI
	VSUBSD       (R12)(DI*1), X1, X0 // shift - d[i]
	VBROADCASTSD X0, Y0
	XORQ         AX, AX

shoct:
	LEAQ   64(AX), DI
	CMPQ   DI, DX
	JGT    shquad
	LEAQ   (SI)(AX*1), DI
	VMULPD (R10)(DI*1), Y0, Y4
	VMULPD 32(R10)(DI*1), Y0, Y8
	VMULPD (R11)(DI*1), Y0, Y5
	VMULPD 32(R11)(DI*1), Y0, Y9
	ROWENTS
	CMPQ   CX, BX
	JGE    shoctstore

shoctent:
	ENTCOL
	VBROADCASTSD 8(R13)(CX*1), Y2
	VMULPD       (R10)(DI*1), Y2, Y6
	VSUBPD       Y6, Y4, Y4
	VMULPD       32(R10)(DI*1), Y2, Y7
	VSUBPD       Y7, Y8, Y8
	VMULPD       (R11)(DI*1), Y2, Y6
	VSUBPD       Y6, Y5, Y5
	VMULPD       32(R11)(DI*1), Y2, Y7
	VSUBPD       Y7, Y9, Y9
	ADDQ         $16, CX
	CMPQ         CX, BX
	JLT          shoctent

shoctstore:
	LEAQ    (SI)(AX*1), DI
	VMOVUPD Y4, (R8)(DI*1)
	VMOVUPD Y8, 32(R8)(DI*1)
	VMOVUPD Y5, (R9)(DI*1)
	VMOVUPD Y9, 32(R9)(DI*1)
	ADDQ    $64, AX
	JMP     shoct

shquad:
	LEAQ   32(AX), DI
	CMPQ   DI, DX
	JGT    shtail
	LEAQ   (SI)(AX*1), DI
	VMULPD (R10)(DI*1), Y0, Y4
	VMULPD (R11)(DI*1), Y0, Y5
	ROWENTS
	CMPQ   CX, BX
	JGE    shquadstore

shquadent:
	ENTCOL
	VBROADCASTSD 8(R13)(CX*1), Y2
	VMULPD       (R10)(DI*1), Y2, Y6
	VSUBPD       Y6, Y4, Y4
	VMULPD       (R11)(DI*1), Y2, Y7
	VSUBPD       Y7, Y5, Y5
	ADDQ         $16, CX
	CMPQ         CX, BX
	JLT          shquadent

shquadstore:
	LEAQ    (SI)(AX*1), DI
	VMOVUPD Y4, (R8)(DI*1)
	VMOVUPD Y5, (R9)(DI*1)
	ADDQ    $32, AX
	JMP     shquad

shtail:
	CMPQ   AX, DX
	JGE    shnext
	LEAQ   (SI)(AX*1), DI
	VMULSD (R10)(DI*1), X0, X4
	VMULSD (R11)(DI*1), X0, X5
	ROWENTS
	CMPQ   CX, BX
	JGE    shtailstore

shtailent:
	ENTCOL
	VMOVSD 8(R13)(CX*1), X2
	VMULSD (R10)(DI*1), X2, X6
	VSUBSD X6, X4, X4
	VMULSD (R11)(DI*1), X2, X7
	VSUBSD X7, X5, X5
	ADDQ   $16, CX
	CMPQ   CX, BX
	JLT    shtailent

shtailstore:
	LEAQ   (SI)(AX*1), DI
	VMOVSD X4, (R8)(DI*1)
	VMOVSD X5, (R9)(DI*1)
	ADDQ   $8, AX
	JMP    shtail

shnext:
	ADDQ DX, SI
	ADDQ $8, R12
	CMPQ R12, pend-8(SP)
	JLT  shrow

shdone:
	VZEROUPPER
	RET

// func csrAccumAVX2(oRe, oIm, vRe, vIm []float64, nb int, cr, ci float64, a *CSR)
// Per entry of row i, with er = cr*val and ei = ci*val:
// out.Re[i, c] += er*vr - ei*vi; out.Im[i, c] += er*vi + ei*vr.
TEXT ·csrAccumAVX2(SB), NOSPLIT, $8-128
	CSRROWS(a+120)
	VBROADCASTSD cr+104(FP), Y0
	VBROADCASTSD ci+112(FP), Y1
	CMPQ         R12, pend-8(SP)
	JGE          acdone

acrow:
	XORQ AX, AX

acoct:
	LEAQ    64(AX), DI
	CMPQ    DI, DX
	JGT     acquad
	LEAQ    (SI)(AX*1), DI
	VMOVUPD (R8)(DI*1), Y4
	VMOVUPD 32(R8)(DI*1), Y12
	VMOVUPD (R9)(DI*1), Y5
	VMOVUPD 32(R9)(DI*1), Y13
	ROWENTS
	CMPQ    CX, BX
	JGE     acoctstore

acoctent:
	ENTCOL
	VBROADCASTSD 8(R13)(CX*1), Y2
	VMULPD       Y2, Y0, Y3          // er
	VMULPD       Y2, Y1, Y2          // ei
	VMOVUPD      (R10)(DI*1), Y6     // vr, columns 0..3 of the chunk
	VMOVUPD      (R11)(DI*1), Y7     // vi
	VMOVUPD      32(R10)(DI*1), Y10  // vr, columns 4..7
	VMOVUPD      32(R11)(DI*1), Y11  // vi
	VMULPD       Y6, Y3, Y8
	VMULPD       Y7, Y2, Y9
	VSUBPD       Y9, Y8, Y8
	VADDPD       Y8, Y4, Y4
	VMULPD       Y7, Y3, Y8
	VMULPD       Y6, Y2, Y9
	VADDPD       Y9, Y8, Y8
	VADDPD       Y8, Y5, Y5
	VMULPD       Y10, Y3, Y8
	VMULPD       Y11, Y2, Y14
	VSUBPD       Y14, Y8, Y8
	VADDPD       Y8, Y12, Y12
	VMULPD       Y11, Y3, Y8
	VMULPD       Y10, Y2, Y14
	VADDPD       Y14, Y8, Y8
	VADDPD       Y8, Y13, Y13
	ADDQ         $16, CX
	CMPQ         CX, BX
	JLT          acoctent

acoctstore:
	LEAQ    (SI)(AX*1), DI
	VMOVUPD Y4, (R8)(DI*1)
	VMOVUPD Y12, 32(R8)(DI*1)
	VMOVUPD Y5, (R9)(DI*1)
	VMOVUPD Y13, 32(R9)(DI*1)
	ADDQ    $64, AX
	JMP     acoct

acquad:
	LEAQ    32(AX), DI
	CMPQ    DI, DX
	JGT     actail
	LEAQ    (SI)(AX*1), DI
	VMOVUPD (R8)(DI*1), Y4
	VMOVUPD (R9)(DI*1), Y5
	ROWENTS
	CMPQ    CX, BX
	JGE     acquadstore

acquadent:
	ENTCOL
	VBROADCASTSD 8(R13)(CX*1), Y2
	VMULPD       Y2, Y0, Y3          // er
	VMULPD       Y2, Y1, Y2          // ei
	VMOVUPD      (R10)(DI*1), Y6     // vr
	VMOVUPD      (R11)(DI*1), Y7     // vi
	VMULPD       Y6, Y3, Y8
	VMULPD       Y7, Y2, Y9
	VSUBPD       Y9, Y8, Y8
	VADDPD       Y8, Y4, Y4
	VMULPD       Y7, Y3, Y8
	VMULPD       Y6, Y2, Y9
	VADDPD       Y9, Y8, Y8
	VADDPD       Y8, Y5, Y5
	ADDQ         $16, CX
	CMPQ         CX, BX
	JLT          acquadent

acquadstore:
	LEAQ    (SI)(AX*1), DI
	VMOVUPD Y4, (R8)(DI*1)
	VMOVUPD Y5, (R9)(DI*1)
	ADDQ    $32, AX
	JMP     acquad

actail:
	CMPQ   AX, DX
	JGE    acnext
	LEAQ   (SI)(AX*1), DI
	VMOVSD (R8)(DI*1), X4
	VMOVSD (R9)(DI*1), X5
	ROWENTS
	CMPQ   CX, BX
	JGE    actailstore

actailent:
	ENTCOL
	VMOVSD 8(R13)(CX*1), X2
	VMULSD X2, X0, X3
	VMULSD X2, X1, X2
	VMOVSD (R10)(DI*1), X6
	VMOVSD (R11)(DI*1), X7
	VMULSD X6, X3, X8
	VMULSD X7, X2, X9
	VSUBSD X9, X8, X8
	VADDSD X8, X4, X4
	VMULSD X7, X3, X8
	VMULSD X6, X2, X9
	VADDSD X9, X8, X8
	VADDSD X8, X5, X5
	ADDQ   $16, CX
	CMPQ   CX, BX
	JLT    actailent

actailstore:
	LEAQ   (SI)(AX*1), DI
	VMOVSD X4, (R8)(DI*1)
	VMOVSD X5, (R9)(DI*1)
	ADDQ   $8, AX
	JMP    actail

acnext:
	ADDQ DX, SI
	ADDQ $8, R12
	CMPQ R12, pend-8(SP)
	JLT  acrow

acdone:
	VZEROUPPER
	RET
