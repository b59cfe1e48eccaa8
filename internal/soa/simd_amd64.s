// AVX2 plane kernels. Each TEXT below is the exact vector transcription of
// its *Scalar sibling in simd.go: identical per-element multiply/add order,
// VMULPD/VADDPD only — never FMA, whose skipped intermediate rounding would
// break the SoA==AoS bitwise parity pinned by the solver tests. R14 (g) and
// X15 are never touched. All kernels are NOSPLIT leaves.

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
// per-column coefficients sit in the matching lanes. Each kernel walks the
// block one column chunk at a time — eight columns (one cache line of each
// plane row) while they last, then four, then single columns on scalar
// lanes — and runs the chunk down the rows with its sums in registers, so
// each column is summed in row order. The fused steps take the rows in
// tiles of about 1 KiB per plane, all chunks of a tile before the next, so
// a chunk's sums go back to memory only between tiles. The planes of a
// solve share their 4 KiB offsets, so every plane's row of a tile maps to
// the same L1 sets: no pass touches more than twelve planes (betaColsAVX2
// sweeps a tile chunk's primal planes, then its dual ones), and
// alphaColsAVX2 issues every load of a row-vector before its first store,
// since a load after a store to another plane's same offset waits on a
// false dependency. The chunk's coefficients and masks are copied to the
// frame, where the rows read them. BX is the byte offset of the current element in every
// plane alike (the planes share one shape), DX the row stride nb*8, CX the
// end of the tile in bytes. A frozen column (mask lane clear) gets its old
// element blended back, so whatever it holds, Inf/NaN included, is stored
// bit-unchanged.

// LANENEW computes an updated element without storing it: OR = old +
// (CR*S0 - CI*S1), OI = old + (CR*S1 + CI*S0), the old element of the plane
// pair at OFF(DRE), OFF(DIM) read from memory and taken back on the lanes
// MI (the inverted mask) selects. T0 and T1 may be S1 and S0.
#define LANENEW(CR, CI, OFF, DRE, DIM, MI, S0, S1, T0, T1, OR, OI) \
	VMULPD    CR, S0, OR; \
	VMULPD    CR, S1, OI; \
	VMULPD    CI, S1, T0; \
	VMULPD    CI, S0, T1; \
	VSUBPD    T0, OR, OR; \
	VADDPD    T1, OI, OI; \
	VADDPD    OFF(DRE)(BX*1), OR, OR; \
	VBLENDVPD MI, OFF(DRE)(BX*1), OR, OR; \
	VADDPD    OFF(DIM)(BX*1), OI, OI; \
	VBLENDVPD MI, OFF(DIM)(BX*1), OI, OI

// LANEUPD performs dst += (CR + i*CI) * (S0 + i*S1) at OFF(BX) on the lanes
// M selects, storing as it goes: re += CR*S0 - CI*S1, im += CR*S1 + CI*S0,
// the stored values left in OR (re) and OI (im). T0 and T1 may be S1 and
// S0 (the scalar-lane tails, short of registers, clobber the source).
#define LANEUPD(MOV, ADD, SUB, MUL, CR, CI, OFF, DRE, DIM, M, S0, S1, T0, T1, OR, OI) \
	MUL       CR, S0, OR; \
	MUL       CR, S1, OI; \
	MUL       CI, S1, T0; \
	MUL       CI, S0, T1; \
	SUB       T0, OR, OR; \
	ADD       T1, OI, OI; \
	MOV       OFF(DRE)(BX*1), T0; \
	ADD       OR, T0, OR; \
	VBLENDVPD M, OR, T0, OR; \
	MOV       OR, OFF(DRE)(BX*1); \
	MOV       OFF(DIM)(BX*1), T1; \
	ADD       OI, T1, OI; \
	VBLENDVPD M, OI, T1, OI; \
	MOV       OI, OFF(DIM)(BX*1)

// LANEXPAY computes p = r + (CR + i*CI) * p on the lanes M selects, from p
// in S0, S1 and r at OFF(RRE), OFF(RIM), into OR, OI; clobbers T.
#define LANEXPAY(ADD, SUB, MUL, CR, CI, OFF, RRE, RIM, M, S0, S1, T, OR, OI) \
	MUL       CR, S0, OR; \
	MUL       CI, S1, T; \
	SUB       T, OR, OR; \
	ADD       OFF(RRE)(BX*1), OR, OR; \
	VBLENDVPD M, OR, S0, OR; \
	MUL       CR, S1, OI; \
	MUL       CI, S0, T; \
	ADD       T, OI, OI; \
	ADD       OFF(RIM)(BX*1), OI, OI; \
	VBLENDVPD M, OI, S1, OI

// LANESUMS accumulates the residual sums of R (R0, R1) and RD (D0, D1):
// S0 += rdr*rr + rdi*ri, S1 += rdr*ri - rdi*rr, S2 += rr*rr + ri*ri,
// S3 += rdr*rdr + rdi*rdi. Clobbers T0, T1.
#define LANESUMS(ADD, SUB, MUL, S0, S1, S2, S3, D0, D1, R0, R1, T0, T1) \
	MUL R0, D0, T0; \
	MUL R1, D1, T1; \
	ADD T1, T0, T0; \
	ADD T0, S0, S0; \
	MUL R1, D0, T0; \
	MUL R0, D1, T1; \
	SUB T1, T0, T0; \
	ADD T0, S1, S1; \
	MUL R0, R0, T0; \
	MUL R1, R1, T1; \
	ADD T1, T0, T0; \
	ADD T0, S2, S2; \
	MUL D0, D0, T0; \
	MUL D1, D1, T1; \
	ADD T1, T0, T0; \
	ADD T0, S3, S3

// COPYVEC copies the vector at OFF(BX) of the array whose base is at
// SRC(SP) to DST(SP); COPYNEG copies it negated (sign bits flipped),
// COPYINV inverted (every bit).
#define COPYVEC(SRC, OFF, DST) \
	MOVQ    SRC(SP), AX; \
	VMOVUPD OFF(AX)(BX*1), Y14; \
	VMOVUPD Y14, DST(SP)

#define COPYNEG(SRC, OFF, DST) \
	MOVQ     SRC(SP), AX; \
	VPCMPEQQ Y14, Y14, Y14; \
	VPSLLQ   $63, Y14, Y14; \
	VXORPD   OFF(AX)(BX*1), Y14, Y14; \
	VMOVUPD  Y14, DST(SP)

#define COPYINV(SRC, OFF, DST) \
	MOVQ     SRC(SP), AX; \
	VPCMPEQQ Y14, Y14, Y14; \
	VPXOR    OFF(AX)(BX*1), Y14, Y14; \
	VMOVUPD  Y14, DST(SP)

// TILESIZE leaves in AX the tile length in bytes: whole rows of stride DX,
// at least 1 KiB (DX > 0).
#define TILESIZE(LOOP, DONE) \
	MOVQ DX, AX; \
LOOP: \
	CMPQ AX, $1024; \
	JGE  DONE; \
	ADDQ DX, AX; \
	JMP  LOOP; \
DONE:

// TILEEND sets CX to the end of the tile starting at TS(SP): TS + TB
// clipped to PEND, and jumps to EXIT when the tile is empty.
#define TILEEND(TS, TB, PEND, CLIP, EXIT) \
	MOVQ TS(SP), CX; \
	CMPQ CX, PEND(SP); \
	JGE  EXIT; \
	ADDQ TB(SP), CX; \
	CMPQ CX, PEND(SP); \
	JLE  CLIP; \
	MOVQ PEND(SP), CX; \
CLIP:

// Frame of alphaColsAVX2: the bases of the coefficient parts (Re, Im), of
// the mask and of the sums (dotRe, dotIm, nr, nrd), the tile bounds, and
// the chunk's coefficients -Re, -Im, Im and inverted mask (vector j of a
// part at its slot + 32j).
#define AL_CO   0
#define AL_MASK 24
#define AL_SUMS 32
#define AL_TS   64
#define AL_PEND 72
#define AL_TB   80
#define AL_NRE  96
#define AL_NIM  160
#define AL_AIM  224
#define AL_MI   288

// ALSUMS loads (MOV = load) or stores (MOV = store form) sum part K of the
// chunk at BX.
#define ALLOAD(MOV, K, OFF, S) \
	MOVQ AL_SUMS+K(SP), AX; \
	MOV  OFF(AX)(BX*1), S

#define ALSTORE(MOV, K, OFF, S) \
	MOVQ AL_SUMS+K(SP), AX; \
	MOV  S, OFF(AX)(BX*1)

// ALVEC is the residual update and sums of the vector at OFF(BX) into
// S0..S3: R' in Y11, Y12, RD' in Y13, Y14, all loads before the stores.
#define ALVEC(OFF, S0, S1, S2, S3) \
	VMOVUPD OFF(R12)(BX*1), Y9; \
	VMOVUPD OFF(R13)(BX*1), Y10; \
	VMOVUPD AL_MI+OFF(SP), Y8; \
	LANENEW(AL_NRE+OFF(SP), AL_NIM+OFF(SP), OFF, R8, R9, Y8, Y9, Y10, Y10, Y9, Y11, Y12); \
	VMOVUPD OFF(SI)(BX*1), Y9; \
	VMOVUPD OFF(DI)(BX*1), Y10; \
	LANENEW(AL_NRE+OFF(SP), AL_AIM+OFF(SP), OFF, R10, R11, Y8, Y9, Y10, Y10, Y9, Y13, Y14); \
	VMOVUPD Y11, OFF(R8)(BX*1); \
	VMOVUPD Y12, OFF(R9)(BX*1); \
	VMOVUPD Y13, OFF(R10)(BX*1); \
	VMOVUPD Y14, OFF(R11)(BX*1); \
	LANESUMS(VADDPD, VSUBPD, VMULPD, S0, S1, S2, S3, Y13, Y14, Y11, Y12, Y9, Y10)

// ALCHUNK copies the coefficients and inverted mask of the vector at
// OFF(BX) to its frame slots.
#define ALCHUNK(OFF) \
	COPYNEG(AL_CO, OFF, AL_NRE+OFF); \
	COPYNEG(AL_CO+8, OFF, AL_NIM+OFF); \
	COPYVEC(AL_CO+8, OFF, AL_AIM+OFF); \
	COPYINV(AL_MASK, OFF, AL_MI+OFF)

// func alphaColsAVX2(pl *[8][]float64, co *[2][]float64, mask []uint64, sums *[4][]float64)
// pl: R, RD, Q, QD (re, im each); per live column c:
// R += (-Re, -Im)*Q, RD += (-Re, Im)*QD, then over every column
// dot += conj(RD)*R, nr += |R|^2, nrd += |RD|^2.
TEXT ·alphaColsAVX2(SB), NOSPLIT, $352-48
	MOVQ co+8(FP), AX
	MOVQ 0(AX), BX
	MOVQ BX, AL_CO(SP)
	MOVQ 24(AX), BX
	MOVQ BX, AL_CO+8(SP)
	MOVQ mask_base+16(FP), BX
	MOVQ BX, AL_MASK(SP)
	MOVQ mask_len+24(FP), DX
	SHLQ $3, DX                 // row stride in bytes
	MOVQ sums+40(FP), AX
	MOVQ 0(AX), R8
	MOVQ R8, AL_SUMS(SP)
	MOVQ 24(AX), R9
	MOVQ R9, AL_SUMS+8(SP)
	MOVQ 48(AX), R10
	MOVQ R10, AL_SUMS+16(SP)
	MOVQ 72(AX), R11
	MOVQ R11, AL_SUMS+24(SP)
	XORQ BX, BX

alcolszero:
	CMPQ BX, DX
	JGE  alcolszeroed
	MOVQ $0, (R8)(BX*1)
	MOVQ $0, (R9)(BX*1)
	MOVQ $0, (R10)(BX*1)
	MOVQ $0, (R11)(BX*1)
	ADDQ $8, BX
	JMP  alcolszero

alcolszeroed:
	TESTQ DX, DX
	JZ    alcolsdone
	TILESIZE(alcolstilesize, alcolstilesized)
	MOVQ  AX, AL_TB(SP)
	MOVQ  pl+0(FP), AX
	MOVQ  8(AX), CX
	SHLQ  $3, CX
	MOVQ  CX, AL_PEND(SP)
	MOVQ  0(AX), R8             // R
	MOVQ  24(AX), R9
	MOVQ  48(AX), R10           // RD
	MOVQ  72(AX), R11
	MOVQ  96(AX), R12           // Q
	MOVQ  120(AX), R13
	MOVQ  144(AX), SI           // QD
	MOVQ  168(AX), DI
	MOVQ  $0, AL_TS(SP)

alcolstile:
	TILEEND(AL_TS, AL_TB, AL_PEND, alcolstileclip, alcolsdone)
	XORQ BX, BX

alcols8:
	LEAQ   64(BX), AX
	CMPQ   AX, DX
	JGT    alcols4
	ALCHUNK(0)
	ALCHUNK(32)
	ALLOAD(VMOVUPD, 0, 0, Y0)
	ALLOAD(VMOVUPD, 8, 0, Y1)
	ALLOAD(VMOVUPD, 16, 0, Y2)
	ALLOAD(VMOVUPD, 24, 0, Y3)
	ALLOAD(VMOVUPD, 0, 32, Y4)
	ALLOAD(VMOVUPD, 8, 32, Y5)
	ALLOAD(VMOVUPD, 16, 32, Y6)
	ALLOAD(VMOVUPD, 24, 32, Y7)
	ADDQ   AL_TS(SP), BX

alcols8loop:
	ALVEC(0, Y0, Y1, Y2, Y3)
	ALVEC(32, Y4, Y5, Y6, Y7)
	ADDQ DX, BX
	CMPQ BX, CX
	JLT  alcols8loop
	SUBQ CX, BX
	ALSTORE(VMOVUPD, 0, 0, Y0)
	ALSTORE(VMOVUPD, 8, 0, Y1)
	ALSTORE(VMOVUPD, 16, 0, Y2)
	ALSTORE(VMOVUPD, 24, 0, Y3)
	ALSTORE(VMOVUPD, 0, 32, Y4)
	ALSTORE(VMOVUPD, 8, 32, Y5)
	ALSTORE(VMOVUPD, 16, 32, Y6)
	ALSTORE(VMOVUPD, 24, 32, Y7)
	ADDQ $64, BX
	JMP  alcols8

alcols4:
	LEAQ 32(BX), AX
	CMPQ AX, DX
	JGT  alcols1
	ALCHUNK(0)
	ALLOAD(VMOVUPD, 0, 0, Y0)
	ALLOAD(VMOVUPD, 8, 0, Y1)
	ALLOAD(VMOVUPD, 16, 0, Y2)
	ALLOAD(VMOVUPD, 24, 0, Y3)
	ADDQ AL_TS(SP), BX

alcols4loop:
	ALVEC(0, Y0, Y1, Y2, Y3)
	ADDQ DX, BX
	CMPQ BX, CX
	JLT  alcols4loop
	SUBQ CX, BX
	ALSTORE(VMOVUPD, 0, 0, Y0)
	ALSTORE(VMOVUPD, 8, 0, Y1)
	ALSTORE(VMOVUPD, 16, 0, Y2)
	ALSTORE(VMOVUPD, 24, 0, Y3)
	ADDQ $32, BX

alcols1:
	CMPQ   BX, DX
	JGE    alcolsnext
	VPCMPEQQ X8, X8, X8
	VPSLLQ   $63, X8, X8        // sign bit
	MOVQ     AL_CO(SP), AX
	VMOVSD   (AX)(BX*1), X0
	VXORPD   X0, X8, X0         // -Re
	MOVQ     AL_CO+8(SP), AX
	VMOVSD   (AX)(BX*1), X2     // Im
	VXORPD   X2, X8, X1         // -Im
	MOVQ   AL_MASK(SP), AX
	VMOVSD (AX)(BX*1), X3
	ALLOAD(VMOVSD, 0, 0, X4)
	ALLOAD(VMOVSD, 8, 0, X5)
	ALLOAD(VMOVSD, 16, 0, X6)
	ALLOAD(VMOVSD, 24, 0, X7)
	ADDQ   AL_TS(SP), BX

alcols1loop:
	VMOVSD (R12)(BX*1), X8
	VMOVSD (R13)(BX*1), X9
	LANEUPD(VMOVSD, VADDSD, VSUBSD, VMULSD, X0, X1, 0, R8, R9, X3, X8, X9, X9, X8, X10, X11)
	VMOVSD (SI)(BX*1), X8
	VMOVSD (DI)(BX*1), X9
	LANEUPD(VMOVSD, VADDSD, VSUBSD, VMULSD, X0, X2, 0, R10, R11, X3, X8, X9, X9, X8, X12, X13)
	LANESUMS(VADDSD, VSUBSD, VMULSD, X4, X5, X6, X7, X12, X13, X10, X11, X8, X9)
	ADDQ   DX, BX
	CMPQ   BX, CX
	JLT    alcols1loop
	SUBQ   CX, BX
	ALSTORE(VMOVSD, 0, 0, X4)
	ALSTORE(VMOVSD, 8, 0, X5)
	ALSTORE(VMOVSD, 16, 0, X6)
	ALSTORE(VMOVSD, 24, 0, X7)
	ADDQ   $8, BX
	JMP    alcols1

alcolsnext:
	MOVQ AL_TB(SP), AX
	ADDQ AX, AL_TS(SP)
	JMP  alcolstile

alcolsdone:
	VZEROUPPER
	RET

// Frame of betaColsAVX2: the bases of the coefficient parts (a: Re, Im;
// b: Re, Im), of the two masks and of the X, XD planes, the tile bounds,
// and the chunk's coefficients aRe, aIm, -aIm, bRe, bIm, -bIm and masks
// (vector j of a part at its slot + 32j).
#define BE_CO   0
#define BE_MA   48
#define BE_MB   56
#define BE_X    64
#define BE_TS   96
#define BE_PEND 104
#define BE_TB   112
#define BE_ARE  128
#define BE_AIM  192
#define BE_ANI  256
#define BE_BRE  320
#define BE_BIM  384
#define BE_BNI  448
#define BE_MA8  512
#define BE_MB8  576

// BEHALF is one direction's step of the vector at OFF(BX): X' = X + a*P
// from the old P, then P' = R + b*P, with a = (AR, AI), b = (BR, BI) from
// the frame slots and X's bases at XB(SP). Coefficients and masks in
// Y0..Y5, P in Y8, Y9, results Y12, Y13, temporaries Y10, Y11; X is
// addressed through AX and R15.
#define BEHALF(OFF, AI, BI, XB, PRE, PIM, RRE, RIM) \
	VMOVUPD BE_ARE+OFF(SP), Y0; \
	VMOVUPD AI+OFF(SP), Y1; \
	VMOVUPD BE_BRE+OFF(SP), Y2; \
	VMOVUPD BI+OFF(SP), Y3; \
	VMOVUPD BE_MA8+OFF(SP), Y4; \
	VMOVUPD BE_MB8+OFF(SP), Y5; \
	VMOVUPD OFF(PRE)(BX*1), Y8; \
	VMOVUPD OFF(PIM)(BX*1), Y9; \
	MOVQ    XB(SP), AX; \
	MOVQ    XB+8(SP), R15; \
	LANEUPD(VMOVUPD, VADDPD, VSUBPD, VMULPD, Y0, Y1, OFF, AX, R15, Y4, Y8, Y9, Y10, Y11, Y12, Y13); \
	LANEXPAY(VADDPD, VSUBPD, VMULPD, Y2, Y3, OFF, RRE, RIM, Y5, Y8, Y9, Y10, Y12, Y13); \
	VMOVUPD Y12, OFF(PRE)(BX*1); \
	VMOVUPD Y13, OFF(PIM)(BX*1)

#define BEPRIMAL(OFF) BEHALF(OFF, BE_AIM, BE_BIM, BE_X, R8, R9, R12, R13)
#define BEDUAL(OFF) BEHALF(OFF, BE_ANI, BE_BNI, BE_X+16, R10, R11, SI, DI)

// BESWEEP runs ROW down the tile's rows from the chunk at BX, leaving BX at
// the chunk's offset.
#define BESWEEP(ROW, LOOP) \
	ADDQ BE_TS(SP), BX; \
LOOP: \
	ROW; \
	ADDQ DX, BX; \
	CMPQ BX, CX; \
	JLT  LOOP; \
	SUBQ CX, BX

// BECHUNK copies the coefficients and masks of the vector at OFF(BX) to
// their frame slots.
#define BECHUNK(OFF) \
	COPYVEC(BE_CO, OFF, BE_ARE+OFF); \
	COPYVEC(BE_CO+8, OFF, BE_AIM+OFF); \
	COPYNEG(BE_CO+8, OFF, BE_ANI+OFF); \
	COPYVEC(BE_CO+16, OFF, BE_BRE+OFF); \
	COPYVEC(BE_CO+24, OFF, BE_BIM+OFF); \
	COPYNEG(BE_CO+24, OFF, BE_BNI+OFF); \
	COPYVEC(BE_MA, OFF, BE_MA8+OFF); \
	COPYVEC(BE_MB, OFF, BE_MB8+OFF)

// BESCALAR loads the coefficient part at K of the single column at BX
// into R.
#define BESCALAR(K, R) \
	MOVQ   BE_CO+K(SP), AX; \
	VMOVSD (AX)(BX*1), R

// func betaColsAVX2(pl *[12][]float64, co *[4][]float64, maskA, maskB []uint64)
// pl: P, PD, R, RD, X, XD (re, im each); per column c, maskA set:
// X += (aRe, aIm)*P, XD += (aRe, -aIm)*PD; then maskB set:
// P = R + (bRe, bIm)*P, PD = RD + (bRe, -bIm)*PD.
TEXT ·betaColsAVX2(SB), NOSPLIT, $640-64
	MOVQ co+8(FP), AX
	MOVQ 0(AX), BX
	MOVQ BX, BE_CO(SP)
	MOVQ 24(AX), BX
	MOVQ BX, BE_CO+8(SP)
	MOVQ 48(AX), BX
	MOVQ BX, BE_CO+16(SP)
	MOVQ 72(AX), BX
	MOVQ BX, BE_CO+24(SP)
	MOVQ maskA_base+16(FP), BX
	MOVQ BX, BE_MA(SP)
	MOVQ maskB_base+40(FP), BX
	MOVQ BX, BE_MB(SP)
	MOVQ maskA_len+24(FP), DX
	SHLQ $3, DX
	TESTQ DX, DX
	JZ    becolsdone
	TILESIZE(becolstilesize, becolstilesized)
	MOVQ AX, BE_TB(SP)
	MOVQ pl+0(FP), AX
	MOVQ 8(AX), CX
	SHLQ $3, CX
	MOVQ CX, BE_PEND(SP)
	MOVQ 0(AX), R8              // P
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10            // PD
	MOVQ 72(AX), R11
	MOVQ 96(AX), R12            // R
	MOVQ 120(AX), R13
	MOVQ 144(AX), SI            // RD
	MOVQ 168(AX), DI
	MOVQ 192(AX), BX            // X
	MOVQ BX, BE_X(SP)
	MOVQ 216(AX), BX
	MOVQ BX, BE_X+8(SP)
	MOVQ 240(AX), BX            // XD
	MOVQ BX, BE_X+16(SP)
	MOVQ 264(AX), BX
	MOVQ BX, BE_X+24(SP)
	MOVQ $0, BE_TS(SP)

becolstile:
	TILEEND(BE_TS, BE_TB, BE_PEND, becolstileclip, becolsdone)
	XORQ BX, BX

becols8:
	LEAQ 64(BX), AX
	CMPQ AX, DX
	JGT  becols4
	BECHUNK(0)
	BECHUNK(32)
	BESWEEP(BEPRIMAL(0); BEPRIMAL(32), becols8primal)
	BESWEEP(BEDUAL(0); BEDUAL(32), becols8dual)
	ADDQ $64, BX
	JMP  becols8

becols4:
	LEAQ 32(BX), AX
	CMPQ AX, DX
	JGT  becols1
	BECHUNK(0)
	BESWEEP(BEPRIMAL(0), becols4primal)
	BESWEEP(BEDUAL(0), becols4dual)
	ADDQ $32, BX

becols1:
	CMPQ   BX, DX
	JGE    becolsnext
	VPCMPEQQ X8, X8, X8
	VPSLLQ   $63, X8, X8        // sign bit
	BESCALAR(0, X0)             // aRe
	BESCALAR(8, X1)             // aIm
	VXORPD   X1, X8, X2         // -aIm
	BESCALAR(16, X3)            // bRe
	BESCALAR(24, X4)            // bIm
	VXORPD   X4, X8, X5         // -bIm
	MOVQ   BE_MA(SP), AX
	VMOVSD (AX)(BX*1), X6
	MOVQ   BE_MB(SP), AX
	VMOVSD (AX)(BX*1), X7
	ADDQ   BE_TS(SP), BX

becols1loop:
	MOVQ   BE_X(SP), AX
	MOVQ   BE_X+8(SP), R15
	VMOVSD (R8)(BX*1), X8
	VMOVSD (R9)(BX*1), X9
	LANEUPD(VMOVSD, VADDSD, VSUBSD, VMULSD, X0, X1, 0, AX, R15, X6, X8, X9, X9, X8, X10, X11)
	MOVQ   BE_X+16(SP), AX
	MOVQ   BE_X+24(SP), R15
	VMOVSD (R10)(BX*1), X8
	VMOVSD (R11)(BX*1), X9
	LANEUPD(VMOVSD, VADDSD, VSUBSD, VMULSD, X0, X2, 0, AX, R15, X6, X8, X9, X9, X8, X10, X11)
	VMOVSD (R8)(BX*1), X8
	VMOVSD (R9)(BX*1), X9
	LANEXPAY(VADDSD, VSUBSD, VMULSD, X3, X4, 0, R12, R13, X7, X8, X9, X12, X10, X11)
	VMOVSD X10, (R8)(BX*1)
	VMOVSD X11, (R9)(BX*1)
	VMOVSD (R10)(BX*1), X8
	VMOVSD (R11)(BX*1), X9
	LANEXPAY(VADDSD, VSUBSD, VMULSD, X3, X5, 0, SI, DI, X7, X8, X9, X12, X10, X11)
	VMOVSD X10, (R10)(BX*1)
	VMOVSD X11, (R11)(BX*1)
	ADDQ   DX, BX
	CMPQ   BX, CX
	JLT    becols1loop
	SUBQ   CX, BX
	ADDQ   $8, BX
	JMP    becols1

becolsnext:
	MOVQ BE_TB(SP), AX
	ADDQ AX, BE_TS(SP)
	JMP  becolstile

becolsdone:
	VZEROUPPER
	RET

// DOTACC accumulates conj(x)*y of the element OFF bytes past AX into SRE,
// SIM: re += xr*yr + xi*yi, im += xr*yi - xi*yr.
#define DOTACC(MOV, ADD, SUB, MUL, OFF, SRE, SIM, T0, T1, T2, T3) \
	MOV OFF(R8)(AX*1), T0; \
	MOV OFF(R9)(AX*1), T1; \
	MUL OFF(R10)(AX*1), T0, T2; \
	MUL OFF(R11)(AX*1), T1, T3; \
	ADD T3, T2, T2; \
	ADD T2, SRE, SRE; \
	MUL OFF(R11)(AX*1), T0, T2; \
	MUL OFF(R10)(AX*1), T1, T3; \
	SUB T3, T2, T2; \
	ADD T2, SIM, SIM

// func dotColsAVX2(dRe, dIm, xRe, xIm, yRe, yIm []float64)
// per column c, rows in order from zero: dRe[c] += xr*yr + xi*yi;
// dIm[c] += xr*yi - xi*yr. Chunks of 16, 4 and 1 columns, AX walks the
// rows of the chunk at BX.
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-144
	MOVQ dRe_base+0(FP), DI
	MOVQ dRe_len+8(FP), DX
	MOVQ dIm_base+24(FP), SI
	MOVQ xRe_base+48(FP), R8
	MOVQ xRe_len+56(FP), CX
	MOVQ xIm_base+72(FP), R9
	MOVQ yRe_base+96(FP), R10
	MOVQ yIm_base+120(FP), R11
	SHLQ $3, DX
	SHLQ $3, CX
	XORQ BX, BX

dotcols16:
	LEAQ   128(BX), AX
	CMPQ   AX, DX
	JGT    dotcols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   BX, AX
	CMPQ   AX, CX
	JGE    dotcols16store

dotcols16loop:
	DOTACC(VMOVUPD, VADDPD, VSUBPD, VMULPD, 0, Y0, Y4, Y8, Y9, Y10, Y11)
	DOTACC(VMOVUPD, VADDPD, VSUBPD, VMULPD, 32, Y1, Y5, Y8, Y9, Y10, Y11)
	DOTACC(VMOVUPD, VADDPD, VSUBPD, VMULPD, 64, Y2, Y6, Y8, Y9, Y10, Y11)
	DOTACC(VMOVUPD, VADDPD, VSUBPD, VMULPD, 96, Y3, Y7, Y8, Y9, Y10, Y11)
	ADDQ DX, AX
	CMPQ AX, CX
	JLT  dotcols16loop

dotcols16store:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	VMOVUPD Y4, (SI)(BX*1)
	VMOVUPD Y5, 32(SI)(BX*1)
	VMOVUPD Y6, 64(SI)(BX*1)
	VMOVUPD Y7, 96(SI)(BX*1)
	ADDQ    $128, BX
	JMP     dotcols16

dotcols4:
	LEAQ   32(BX), AX
	CMPQ   AX, DX
	JGT    dotcols1
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ   BX, AX
	CMPQ   AX, CX
	JGE    dotcols4store

dotcols4loop:
	DOTACC(VMOVUPD, VADDPD, VSUBPD, VMULPD, 0, Y0, Y4, Y8, Y9, Y10, Y11)
	ADDQ DX, AX
	CMPQ AX, CX
	JLT  dotcols4loop

dotcols4store:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y4, (SI)(BX*1)
	ADDQ    $32, BX
	JMP     dotcols4

dotcols1:
	CMPQ   BX, DX
	JGE    dotcolsdone
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	MOVQ   BX, AX
	CMPQ   AX, CX
	JGE    dotcols1store

dotcols1loop:
	DOTACC(VMOVSD, VADDSD, VSUBSD, VMULSD, 0, X0, X4, X8, X9, X10, X11)
	ADDQ DX, AX
	CMPQ AX, CX
	JLT  dotcols1loop

dotcols1store:
	VMOVSD X0, (DI)(BX*1)
	VMOVSD X4, (SI)(BX*1)
	ADDQ   $8, BX
	JMP    dotcols1

dotcolsdone:
	VZEROUPPER
	RET
