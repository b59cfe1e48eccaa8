// AVX2 row-resident kernels: the stencil row and the projector gather and
// scatter. Each TEXT is the exact transcription of its *Scalar sibling in
// stencil.go — per element the same multiplies and adds in the same order,
// VMULPD/VADDPD only, never FMA (see simd_amd64.s). R14 (g) and X15 are
// never touched. All kernels are NOSPLIT leaves.

#include "textflag.h"
#include "go_asm.h"

// Frame of stencilRowAVX2, relative to the hardware SP.
#define ROW_YOFF  0   // 2*nf byte offsets of the y neighbour rows (+d, -d per d)
#define ROW_ZOFF  128 // byte offsets of the present in-cell z neighbour rows
#define ROW_ZCOEF 256 // their coefficients
#define ROW_NZ    384 // number of z terms
#define ROW_NF    392
#define ROW_NF2   400 // 2*nf
#define ROW_BYTES 408 // nx*nb*8
#define ROW_NB    416 // nb
#define ROW_XOFF  424 // per point of a group: 2*nf int32 x offsets, 64 bytes a point
#define ROW_DIAG  680 // per point of a group: its diagonal coefficient

// XBUILD fills the x offset table at TAB for the point whose neighbour
// indices DX points at: (neighbour*nb*8 - R10) as int32 (exact: a row's
// bytes fit int32), R10 the byte offset of the group's first point, so that
// (R8)(offset*1) is the neighbour's element for any point of the group. Y13
// holds nb*8 and Y14 R10 in every int32 lane. All 16 slots are written; the
// neighbour table is padded so the loads stay inside it. Leaves DX at the
// next point's indices. Clobbers AX, Y11, Y12.
#define XBUILD(TAB) \
	VMOVDQU (DX), Y11; \
	VMOVDQU 32(DX), Y12; \
	VPMULLD Y13, Y11, Y11; \
	VPMULLD Y13, Y12, Y12; \
	VPSUBD  Y14, Y11, Y11; \
	VPSUBD  Y14, Y12, Y12; \
	VMOVDQU Y11, TAB(SP); \
	VMOVDQU Y12, TAB+32(SP); \
	MOVQ    ROW_NF(SP), AX; \
	LEAQ    (DX)(AX*8), DX

// XGROUP starts a group at the point R12 points at: DX its neighbour
// indices, Y14 the group's byte offset R10.
#define XGROUP \
	MOVQ         R12, DX; \
	VMOVQ        R10, X14; \
	VPBROADCASTD X14, Y14

// DBUILD stores the diagonal coefficient Shift + Sign*(Diag + vloc) of the
// group's point K (vloc at K*8(R11)) to ROW_DIAG + K*8.
#define DBUILD(K8) \
	VMOVSD K8(R11), X6; \
	VADDSD StencilCoef_Diag(R15), X6, X6; \
	VMULSD StencilCoef_Sign(R15), X6, X6; \
	VADDSD StencilCoef_Shift(R15), X6, X6; \
	VMOVSD X6, ROW_DIAG+K8(SP)

// ROWCHUNK accumulates every term of the elements at (R8)/(R9) — one vector
// of four columns, or one scalar column — into A0 (re) and A1 (im), in the
// order diagonal, x pairs, y pairs, z singles, and stores them to (DI)/(SI).
// R8/R9 point at the current element of the v row, the x offsets of its
// point are at ROW_XOFF, R15 holds the coefficients, D5 the diagonal
// coefficient. Clobbers AX, BX, DX.
#define ROWCHUNK(MOV, ADD, MUL, LDC, A0, A1, T2, T3, C4, D5, XL, YL, ZL, ZD) \
	MUL     (R8), D5, A0; \
	MUL     (R9), D5, A1; \
	XORQ    BX, BX; \
XL: \
	MOVLQSX ROW_XOFF(SP)(BX*4), AX; \
	MOVLQSX ROW_XOFF+4(SP)(BX*4), DX; \
	LDC     StencilCoef_Cx(R15)(BX*4), C4; \
	MOV     (R8)(AX*1), T2; \
	MOV     (R9)(AX*1), T3; \
	ADD     (R8)(DX*1), T2, T2; \
	ADD     (R9)(DX*1), T3, T3; \
	MUL     C4, T2, T2; \
	MUL     C4, T3, T3; \
	ADD     T2, A0, A0; \
	ADD     T3, A1, A1; \
	ADDQ    $2, BX; \
	CMPQ    BX, ROW_NF2(SP); \
	JLT     XL; \
	XORQ    BX, BX; \
YL: \
	MOVQ    ROW_YOFF(SP)(BX*8), AX; \
	MOVQ    ROW_YOFF+8(SP)(BX*8), DX; \
	LDC     StencilCoef_Cy(R15)(BX*4), C4; \
	MOV     (R8)(AX*1), T2; \
	MOV     (R9)(AX*1), T3; \
	ADD     (R8)(DX*1), T2, T2; \
	ADD     (R9)(DX*1), T3, T3; \
	MUL     C4, T2, T2; \
	MUL     C4, T3, T3; \
	ADD     T2, A0, A0; \
	ADD     T3, A1, A1; \
	ADDQ    $2, BX; \
	CMPQ    BX, ROW_NF2(SP); \
	JLT     YL; \
	XORQ    BX, BX; \
	CMPQ    BX, ROW_NZ(SP); \
	JGE     ZD; \
ZL: \
	MOVQ    ROW_ZOFF(SP)(BX*8), AX; \
	LDC     ROW_ZCOEF(SP)(BX*8), C4; \
	MUL     (R8)(AX*1), C4, T2; \
	MUL     (R9)(AX*1), C4, T3; \
	ADD     T2, A0, A0; \
	ADD     T3, A1, A1; \
	INCQ    BX; \
	CMPQ    BX, ROW_NZ(SP); \
	JLT     ZL; \
ZD: \
	MOV     A0, (DI); \
	MOV     A1, (SI)

// Tile terms. A tile is four vectors: vector j's element is at 32j(R8) and
// 32j(R9), its sums are in Y(j) (re) and Y(4+j) (im), its x offsets are
// the table at XTj and its x neighbours at XDj past them (the column of the
// vector within its point). Y8 holds the term's coefficient.

// TILEX adds the x pair at table slot BX of one vector.
#define TILEX(XT, XD, ARE, AIM) \
	MOVLQSX XT(SP)(BX*4), AX; \
	MOVLQSX XT+4(SP)(BX*4), DX; \
	VMOVUPD XD(R8)(AX*1), Y9; \
	VMOVUPD XD(R9)(AX*1), Y10; \
	VADDPD  XD(R8)(DX*1), Y9, Y9; \
	VADDPD  XD(R9)(DX*1), Y10, Y10; \
	VMULPD  Y8, Y9, Y9; \
	VMULPD  Y8, Y10, Y10; \
	VADDPD  Y9, ARE, ARE; \
	VADDPD  Y10, AIM, AIM

// TILEP adds the pair at offsets AX and DX from the element at OFF.
#define TILEP(OFF, ARE, AIM) \
	VMOVUPD OFF(R8)(AX*1), Y9; \
	VMOVUPD OFF(R9)(AX*1), Y10; \
	VADDPD  OFF(R8)(DX*1), Y9, Y9; \
	VADDPD  OFF(R9)(DX*1), Y10, Y10; \
	VMULPD  Y8, Y9, Y9; \
	VMULPD  Y8, Y10, Y10; \
	VADDPD  Y9, ARE, ARE; \
	VADDPD  Y10, AIM, AIM

// TILEZ adds the single at offset AX from the element at OFF.
#define TILEZ(OFF, ARE, AIM) \
	VMULPD OFF(R8)(AX*1), Y8, Y9; \
	VMULPD OFF(R9)(AX*1), Y8, Y10; \
	VADDPD Y9, ARE, ARE; \
	VADDPD Y10, AIM, AIM

// TILE accumulates all terms of the four vectors, diagonal (coefficient at
// DGj), x pairs, y pairs, z singles, term by term across the vectors — four
// independent chains per term — and stores the sums. Clobbers AX, BX, DX,
// Y0..Y10.
#define TILE(XT0, XT1, XT2, XT3, XD0, XD1, XD2, XD3, DG0, DG1, DG2, DG3, XL, YL, ZL, ZD) \
	VBROADCASTSD DG0(SP), Y8; \
	VMULPD       0(R8), Y8, Y0; \
	VMULPD       0(R9), Y8, Y4; \
	VBROADCASTSD DG1(SP), Y8; \
	VMULPD       32(R8), Y8, Y1; \
	VMULPD       32(R9), Y8, Y5; \
	VBROADCASTSD DG2(SP), Y8; \
	VMULPD       64(R8), Y8, Y2; \
	VMULPD       64(R9), Y8, Y6; \
	VBROADCASTSD DG3(SP), Y8; \
	VMULPD       96(R8), Y8, Y3; \
	VMULPD       96(R9), Y8, Y7; \
	XORQ         BX, BX; \
XL: \
	VBROADCASTSD StencilCoef_Cx(R15)(BX*4), Y8; \
	TILEX(XT0, XD0, Y0, Y4); \
	TILEX(XT1, XD1, Y1, Y5); \
	TILEX(XT2, XD2, Y2, Y6); \
	TILEX(XT3, XD3, Y3, Y7); \
	ADDQ         $2, BX; \
	CMPQ         BX, ROW_NF2(SP); \
	JLT          XL; \
	XORQ         BX, BX; \
YL: \
	MOVQ         ROW_YOFF(SP)(BX*8), AX; \
	MOVQ         ROW_YOFF+8(SP)(BX*8), DX; \
	VBROADCASTSD StencilCoef_Cy(R15)(BX*4), Y8; \
	TILEP(0, Y0, Y4); \
	TILEP(32, Y1, Y5); \
	TILEP(64, Y2, Y6); \
	TILEP(96, Y3, Y7); \
	ADDQ         $2, BX; \
	CMPQ         BX, ROW_NF2(SP); \
	JLT          YL; \
	XORQ         BX, BX; \
	CMPQ         BX, ROW_NZ(SP); \
	JGE          ZD; \
ZL: \
	MOVQ         ROW_ZOFF(SP)(BX*8), AX; \
	VBROADCASTSD ROW_ZCOEF(SP)(BX*8), Y8; \
	TILEZ(0, Y0, Y4); \
	TILEZ(32, Y1, Y5); \
	TILEZ(64, Y2, Y6); \
	TILEZ(96, Y3, Y7); \
	INCQ         BX; \
	CMPQ         BX, ROW_NZ(SP); \
	JLT          ZL; \
ZD: \
	VMOVUPD      Y0, (DI); \
	VMOVUPD      Y1, 32(DI); \
	VMOVUPD      Y2, 64(DI); \
	VMOVUPD      Y3, 96(DI); \
	VMOVUPD      Y4, (SI); \
	VMOVUPD      Y5, 32(SI); \
	VMOVUPD      Y6, 64(SI); \
	VMOVUPD      Y7, 96(SI)

// ADVANCE moves the four element pointers BYTES on.
#define ADVANCE(BYTES) \
	ADDQ $BYTES, DI; \
	ADDQ $BYTES, SI; \
	ADDQ $BYTES, R8; \
	ADDQ $BYTES, R9

// func stencilRowAVX2(s *Stencil, c *StencilCoef, vloc, vRe, vIm, oRe, oIm []float64, nb, iz, iy int)
// At nb = 4 the row's points run in groups of four, one 16-element tile per
// group; otherwise (and for a short last group) one at a time, as 16-column
// tiles of the point, then single vectors, then scalar columns. Each
// group's x offsets are built once.
TEXT ·stencilRowAVX2(SB), NOSPLIT, $712-160
	MOVQ  s+0(FP), R12
	MOVQ  c+8(FP), R15
	MOVQ  nb+136(FP), R13
	MOVQ  iz+144(FP), AX
	MOVQ  iy+152(FP), BX
	MOVQ  Stencil_nf(R12), DX
	MOVQ  DX, ROW_NF(SP)
	LEAQ  (DX)(DX*1), CX
	MOVQ  CX, ROW_NF2(SP)
	MOVQ  R13, ROW_NB(SP)
	SHLQ  $3, R13               // point stride nb*8
	VMOVQ R13, X13
	VPBROADCASTD X13, Y13
	MOVQ  Stencil_nx(R12), R10
	IMULQ R13, R10              // row bytes
	MOVQ  R10, ROW_BYTES(SP)
	MOVQ  Stencil_ny(R12), R11
	IMULQ R10, R11              // plane bytes

	// y neighbour rows: (ynb[iy*2nf + j] - iy) * rowBytes, j < 2nf.
	MOVQ  Stencil_ynb(R12), SI
	MOVQ  BX, DI
	IMULQ DX, DI
	LEAQ  (SI)(DI*8), SI
	XORQ  DI, DI

rowybuild:
	MOVLQSX (SI)(DI*4), R9
	SUBQ    BX, R9
	IMULQ   R10, R9
	MOVQ    R9, ROW_YOFF(SP)(DI*8)
	INCQ    DI
	CMPQ    DI, CX
	JLT     rowybuild

	// z terms, d = SI+1: +d when iz+d < nz, then -d when iz-d >= 0; a zero
	// coefficient (either sign) drops both.
	MOVQ Stencil_nz(R12), CX
	XORQ DI, DI                 // terms so far
	XORQ SI, SI
	MOVQ R11, R9                // d * planeBytes

rowzbuild:
	MOVQ StencilCoef_Cz(R15)(SI*8), R8
	MOVQ R8, R10
	SHLQ $1, R10
	JZ   rowznext
	LEAQ 1(AX)(SI*1), R10
	CMPQ R10, CX
	JGE  rowzminus
	MOVQ R9, ROW_ZOFF(SP)(DI*8)
	MOVQ R8, ROW_ZCOEF(SP)(DI*8)
	INCQ DI

rowzminus:
	CMPQ AX, SI
	JLE  rowznext
	MOVQ R9, R10
	NEGQ R10
	MOVQ R10, ROW_ZOFF(SP)(DI*8)
	MOVQ R8, ROW_ZCOEF(SP)(DI*8)
	INCQ DI

rowznext:
	ADDQ R11, R9
	INCQ SI
	CMPQ SI, DX
	JLT  rowzbuild
	MOVQ DI, ROW_NZ(SP)

	// Row pointers: row r = iz*ny + iy starts r*rowBytes into the planes
	// and r*nx*8 into vloc.
	IMULQ Stencil_ny(R12), AX
	ADDQ  BX, AX
	MOVQ  AX, CX
	IMULQ ROW_BYTES(SP), AX
	MOVQ  vRe_base+40(FP), R8
	ADDQ  AX, R8
	MOVQ  vIm_base+64(FP), R9
	ADDQ  AX, R9
	MOVQ  oRe_base+88(FP), DI
	ADDQ  AX, DI
	MOVQ  oIm_base+112(FP), SI
	ADDQ  AX, SI
	IMULQ Stencil_nx(R12), CX
	MOVQ  vloc_base+16(FP), R11
	LEAQ  (R11)(CX*8), R11
	MOVQ  Stencil_xnb(R12), R12
	XORQ  R10, R10

rowgroup:
	CMPQ R10, ROW_BYTES(SP)
	JGE  rowdone
	XGROUP
	CMPQ R13, $32
	JNE  rowpoint

rowfour:
	LEAQ   128(R10), AX
	CMPQ   AX, ROW_BYTES(SP)
	JGT    rowpoint
	XBUILD(ROW_XOFF)
	XBUILD(ROW_XOFF+64)
	XBUILD(ROW_XOFF+128)
	XBUILD(ROW_XOFF+192)
	MOVQ   DX, R12
	DBUILD(0)
	DBUILD(8)
	DBUILD(16)
	DBUILD(24)
	TILE(ROW_XOFF, ROW_XOFF+64, ROW_XOFF+128, ROW_XOFF+192, 0, 0, 0, 0, ROW_DIAG, ROW_DIAG+8, ROW_DIAG+16, ROW_DIAG+24, rowfourx, rowfoury, rowfourz, rowfourzd)
	ADVANCE(128)
	ADDQ   $128, R10
	ADDQ   $32, R11
	JMP    rowgroup

rowpoint:
	XBUILD(ROW_XOFF)
	MOVQ DX, R12
	DBUILD(0)
	MOVQ ROW_NB(SP), CX

rowtile:
	CMPQ CX, $16
	JLT  rowvecs
	TILE(ROW_XOFF, ROW_XOFF, ROW_XOFF, ROW_XOFF, 0, 32, 64, 96, ROW_DIAG, ROW_DIAG, ROW_DIAG, ROW_DIAG, rowtilex, rowtiley, rowtilez, rowtilezd)
	ADVANCE(128)
	SUBQ $16, CX
	JMP  rowtile

rowvecs:
	VBROADCASTSD ROW_DIAG(SP), Y5

rowvec:
	CMPQ CX, $4
	JLT  rowscalars
	ROWCHUNK(VMOVUPD, VADDPD, VMULPD, VBROADCASTSD, Y0, Y1, Y2, Y3, Y4, Y5, rowvx, rowvy, rowvz, rowvzd)
	ADVANCE(32)
	SUBQ $4, CX
	JMP  rowvec

rowscalars:
	VMOVSD ROW_DIAG(SP), X5

rowscalar:
	TESTQ CX, CX
	JZ    rownext
	ROWCHUNK(VMOVSD, VADDSD, VMULSD, VMOVSD, X0, X1, X2, X3, X4, X5, rowsx, rowsy, rowsz, rowszd)
	ADVANCE(8)
	DECQ  CX
	JMP   rowscalar

rownext:
	ADDQ R13, R10
	ADDQ $8, R11
	JMP  rowgroup

rowdone:
	VZEROUPPER
	RET

// Projector kernels. A call walks the support once per column chunk — 16
// columns while at least 16 are left, then 4, then 1 — with the chunk's
// sums in registers (four re and four im vectors at 16), every column
// summed or updated in sample order. R8/R9 point at the chunk's first column
// in row 0 of the planes, R10 = n, R11 the row stride nb*8, R12/R13 idx and
// its length, R15 val, BX the sample position.

// PROJSAMPLE loads sample BX: its row's byte offset into AX and its value,
// broadcast, into C. A row index outside [0, n) leaves through BAD with BX
// still the position of the sample.
#define PROJSAMPLE(LDC, C, BAD) \
	MOVL  (R12)(BX*4), AX; \
	CMPQ  AX, R10; \
	JAE   BAD; \
	IMULQ R11, AX; \
	LDC   (R15)(BX*8), C

// GDACC performs ACC += C * plane[row, chunk] for one vector or scalar.
#define GDACC(MUL, ADD, OFF, BASE, C, T, ACC) \
	MUL OFF(BASE)(AX*1), C, T; \
	ADD T, ACC, ACC

// func gatherDotAVX2(sumsRe, sumsIm, vRe, vIm []float64, n, nb int, idx []int32, val []float64) int
TEXT ·gatherDotAVX2(SB), NOSPLIT, $0-168
	MOVQ sumsRe_base+0(FP), DI
	MOVQ sumsRe_len+8(FP), CX   // columns left
	MOVQ sumsIm_base+24(FP), SI
	MOVQ vRe_base+48(FP), R8
	MOVQ vIm_base+72(FP), R9
	MOVQ n+96(FP), R10
	MOVQ nb+104(FP), R11
	SHLQ $3, R11                // row stride in bytes
	MOVQ idx_base+112(FP), R12
	MOVQ idx_len+120(FP), R13
	MOVQ val_base+136(FP), R15

gd16:
	CMPQ   CX, $16
	JLT    gd4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   BX, BX
	TESTQ  R13, R13
	JZ     gd16store

gd16loop:
	PROJSAMPLE(VBROADCASTSD, Y8, gdbad)
	GDACC(VMULPD, VADDPD, 0, R8, Y8, Y9, Y0)
	GDACC(VMULPD, VADDPD, 32, R8, Y8, Y10, Y1)
	GDACC(VMULPD, VADDPD, 64, R8, Y8, Y11, Y2)
	GDACC(VMULPD, VADDPD, 96, R8, Y8, Y12, Y3)
	GDACC(VMULPD, VADDPD, 0, R9, Y8, Y9, Y4)
	GDACC(VMULPD, VADDPD, 32, R9, Y8, Y10, Y5)
	GDACC(VMULPD, VADDPD, 64, R9, Y8, Y11, Y6)
	GDACC(VMULPD, VADDPD, 96, R9, Y8, Y12, Y7)
	INCQ BX
	CMPQ BX, R13
	JLT  gd16loop

gd16store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, 64(SI)
	VMOVUPD Y7, 96(SI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R8
	ADDQ    $128, R9
	SUBQ    $16, CX
	JMP     gd16

gd4:
	CMPQ   CX, $4
	JLT    gd1
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	XORQ   BX, BX
	TESTQ  R13, R13
	JZ     gd4store

gd4loop:
	PROJSAMPLE(VBROADCASTSD, Y8, gdbad)
	GDACC(VMULPD, VADDPD, 0, R8, Y8, Y9, Y0)
	GDACC(VMULPD, VADDPD, 0, R9, Y8, Y10, Y4)
	INCQ BX
	CMPQ BX, R13
	JLT  gd4loop

gd4store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JMP     gd4

gd1:
	TESTQ  CX, CX
	JZ     gdok
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	XORQ   BX, BX
	TESTQ  R13, R13
	JZ     gd1store

gd1loop:
	PROJSAMPLE(VMOVSD, X8, gdbad)
	GDACC(VMULSD, VADDSD, 0, R8, X8, X9, X0)
	GDACC(VMULSD, VADDSD, 0, R9, X8, X10, X4)
	INCQ BX
	CMPQ BX, R13
	JLT  gd1loop

gd1store:
	VMOVSD X0, (DI)
	VMOVSD X4, (SI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	ADDQ   $8, R8
	ADDQ   $8, R9
	DECQ   CX
	JMP    gd1

gdok:
	MOVQ $-1, BX

gdbad:
	MOVQ BX, ret+160(FP)
	VZEROUPPER
	RET

// SCUPD performs plane[row, chunk] += C * S for one vector or scalar.
#define SCUPD(MOV, MUL, ADD, OFF, BASE, C, S, T) \
	MUL S, C, T; \
	ADD OFF(BASE)(AX*1), T, T; \
	MOV T, OFF(BASE)(AX*1)

// func scatterAxpyAVX2(oRe, oIm []float64, n, nb int, idx []int32, val, sumsRe, sumsIm []float64) int
TEXT ·scatterAxpyAVX2(SB), NOSPLIT, $0-168
	MOVQ oRe_base+0(FP), R8
	MOVQ oIm_base+24(FP), R9
	MOVQ n+48(FP), R10
	MOVQ nb+56(FP), R11
	SHLQ $3, R11
	MOVQ idx_base+64(FP), R12
	MOVQ idx_len+72(FP), R13
	MOVQ val_base+88(FP), R15
	MOVQ sumsRe_base+112(FP), DI
	MOVQ sumsRe_len+120(FP), CX
	MOVQ sumsIm_base+136(FP), SI

sc16:
	CMPQ    CX, $16
	JLT     sc4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	XORQ    BX, BX
	TESTQ   R13, R13
	JZ      sc16next

sc16loop:
	PROJSAMPLE(VBROADCASTSD, Y8, scbad)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 0, R8, Y8, Y0, Y9)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 32, R8, Y8, Y1, Y10)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 64, R8, Y8, Y2, Y11)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 96, R8, Y8, Y3, Y12)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 0, R9, Y8, Y4, Y9)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 32, R9, Y8, Y5, Y10)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 64, R9, Y8, Y6, Y11)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 96, R9, Y8, Y7, Y12)
	INCQ BX
	CMPQ BX, R13
	JLT  sc16loop

sc16next:
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	SUBQ $16, CX
	JMP  sc16

sc4:
	CMPQ    CX, $4
	JLT     sc1
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y4
	XORQ    BX, BX
	TESTQ   R13, R13
	JZ      sc4next

sc4loop:
	PROJSAMPLE(VBROADCASTSD, Y8, scbad)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 0, R8, Y8, Y0, Y9)
	SCUPD(VMOVUPD, VMULPD, VADDPD, 0, R9, Y8, Y4, Y10)
	INCQ BX
	CMPQ BX, R13
	JLT  sc4loop

sc4next:
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  sc4

sc1:
	TESTQ  CX, CX
	JZ     scok
	VMOVSD (DI), X0
	VMOVSD (SI), X4
	XORQ   BX, BX
	TESTQ  R13, R13
	JZ     sc1next

sc1loop:
	PROJSAMPLE(VMOVSD, X8, scbad)
	SCUPD(VMOVSD, VMULSD, VADDSD, 0, R8, X8, X0, X9)
	SCUPD(VMOVSD, VMULSD, VADDSD, 0, R9, X8, X4, X10)
	INCQ BX
	CMPQ BX, R13
	JLT  sc1loop

sc1next:
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JMP  sc1

scok:
	MOVQ $-1, BX

scbad:
	MOVQ BX, ret+160(FP)
	VZEROUPPER
	RET
