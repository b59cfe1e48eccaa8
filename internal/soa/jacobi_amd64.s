// AVX2 lane kernels of the one-sided Jacobi SVD. The rows run outermost;
// in each row every quad in turn loads columns P..P+3 in natural order and
// Q-3..Q reversed into lane order with VPERMPD, so lane k is the pair
// (P+k, Q-k). A diagonal's last quad may hold one to three pairs: it loads
// and stores its columns with VMASKMOVPD under the lane masks of
// jacobiTailMask, so the lanes past Lanes touch no memory (their columns
// may belong to the other group, or lie outside the planes). Each TEXT is
// the exact transcription of its *Scalar sibling in jacobi.go — per element
// the same multiplies and adds in the same order, VMULPD/VADDPD/VSUBPD
// only, never FMA (see simd_amd64.s). R14 (g) and X15 are never touched.

#include "textflag.h"
#include "go_asm.h"

// JACOBIROWS sets R8/R9 to the re/im planes, DX to the row stride nb*8, CX
// to the end of the re plane, R12 to the first quad and R13 to the quad
// count.
#define JACOBIROWS \
	MOVQ re_base+0(FP), R8; \
	MOVQ re_len+8(FP), CX; \
	MOVQ im_base+24(FP), R9; \
	MOVQ nb+48(FP), DX; \
	MOVQ quads+56(FP), R12; \
	MOVQ nq+64(FP), R13; \
	LEAQ (R8)(CX*8), CX; \
	SHLQ $3, DX

// QUADCOLS sets AX and BX to the byte offsets of columns P and Q-3 of the
// quad at DI.
#define QUADCOLS \
	MOVQ JacobiQuad_P(DI), AX; \
	MOVQ JacobiQuad_Q(DI), BX; \
	SHLQ $3, AX; \
	LEAQ -24(BX*8), BX

// jacobiTailMask holds the lane masks of a quad with L < 4 lanes: its
// column group P..P+3 takes the four words at 64-8L (lanes 0..L-1 set),
// its group Q-3..Q the four at 8L (lanes 4-L..3 set, in memory order).
DATA jacobiTailMask<>+0(SB)/8, $0
DATA jacobiTailMask<>+8(SB)/8, $0
DATA jacobiTailMask<>+16(SB)/8, $0
DATA jacobiTailMask<>+24(SB)/8, $0
DATA jacobiTailMask<>+32(SB)/8, $-1
DATA jacobiTailMask<>+40(SB)/8, $-1
DATA jacobiTailMask<>+48(SB)/8, $-1
DATA jacobiTailMask<>+56(SB)/8, $-1
DATA jacobiTailMask<>+64(SB)/8, $0
DATA jacobiTailMask<>+72(SB)/8, $0
DATA jacobiTailMask<>+80(SB)/8, $0
DATA jacobiTailMask<>+88(SB)/8, $0
GLOBL jacobiTailMask<>(SB), RODATA|NOPTR, $96

// TAILMASKS loads the masks of the partial quad at DI: pm for columns
// P..P+3, qm for columns Q-3..Q. It clobbers R10 and R11.
#define TAILMASKS(pm, qm) \
	MOVQ    JacobiQuad_Lanes(DI), R10; \
	LEAQ    jacobiTailMask<>(SB), R11; \
	VMOVUPD (R11)(R10*8), qm; \
	NEGQ    R10; \
	VMOVUPD 64(R11)(R10*8), pm

// func jacobiDotsAVX2(re, im []float64, nb int, quads *JacobiQuad, nq int)
// Per row, per quad: App += ar*ar + ai*ai, Aqq += br*br + bi*bi,
// ApqRe += ar*br - (-ai)*bi, ApqIm += ar*bi + (-ai)*br, the sums carried
// in the quads from row to row.
TEXT ·jacobiDotsAVX2(SB), NOSPLIT, $0-72
	JACOBIROWS
	VXORPD   Y0, Y0, Y0
	MOVQ     R12, DI
	MOVQ     R13, SI

jdotszero:
	VMOVUPD Y0, JacobiQuad_App(DI)
	VMOVUPD Y0, JacobiQuad_Aqq(DI)
	VMOVUPD Y0, JacobiQuad_ApqRe(DI)
	VMOVUPD Y0, JacobiQuad_ApqIm(DI)
	ADDQ    $JacobiQuad__size, DI
	DECQ    SI
	JNZ     jdotszero
	VPCMPEQQ Y4, Y4, Y4
	VPSLLQ   $63, Y4, Y4        // sign bit
	CMPQ     R8, CX
	JGE      jdotsdone

jdotsrow:
	MOVQ R12, DI
	MOVQ R13, SI

jdotsquad:
	QUADCOLS
	CMPQ    JacobiQuad_Lanes(DI), $4
	JLT     jdotspart
	VMOVUPD (R8)(AX*1), Y5             // ar
	VMOVUPD (R9)(AX*1), Y6             // ai
	VPERMPD $0x1b, (R8)(BX*1), Y7      // br
	VPERMPD $0x1b, (R9)(BX*1), Y8      // bi

jdotssums:
	VMULPD  Y5, Y5, Y9
	VMULPD  Y6, Y6, Y10
	VADDPD  Y10, Y9, Y9
	VADDPD  JacobiQuad_App(DI), Y9, Y9
	VMOVUPD Y9, JacobiQuad_App(DI)
	VMULPD  Y7, Y7, Y9
	VMULPD  Y8, Y8, Y10
	VADDPD  Y10, Y9, Y9
	VADDPD  JacobiQuad_Aqq(DI), Y9, Y9
	VMOVUPD Y9, JacobiQuad_Aqq(DI)
	VXORPD  Y4, Y6, Y11                // -ai
	VMULPD  Y7, Y5, Y9
	VMULPD  Y8, Y11, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  JacobiQuad_ApqRe(DI), Y9, Y9
	VMOVUPD Y9, JacobiQuad_ApqRe(DI)
	VMULPD  Y8, Y5, Y9
	VMULPD  Y7, Y11, Y10
	VADDPD  Y10, Y9, Y9
	VADDPD  JacobiQuad_ApqIm(DI), Y9, Y9
	VMOVUPD Y9, JacobiQuad_ApqIm(DI)
	ADDQ    $JacobiQuad__size, DI
	DECQ    SI
	JNZ     jdotsquad
	ADDQ    DX, R8
	ADDQ    DX, R9
	CMPQ    R8, CX
	JLT     jdotsrow

jdotsdone:
	VZEROUPPER
	RET

jdotspart:
	TAILMASKS(Y12, Y13)
	VMASKMOVPD (R8)(AX*1), Y12, Y5
	VMASKMOVPD (R9)(AX*1), Y12, Y6
	VMASKMOVPD (R8)(BX*1), Y13, Y7
	VMASKMOVPD (R9)(BX*1), Y13, Y8
	VPERMPD    $0x1b, Y7, Y7
	VPERMPD    $0x1b, Y8, Y8
	JMP        jdotssums

// The four rotated planes of a quad, each into Y10 and blended back to the
// old element on the lanes whose mask is clear: ar, ai, br, bi in Y6..Y9,
// cs, snr in Y0, Y1, the mask in Y5, the zero in Y4, and Y2 holding -sni
// for the a' planes and sni for the b' planes. Y11 and Y12 are scratch.

// re a' = (cs*ar - 0*ai) - (snr*br - (-sni)*bi)
#define ROTREA \
	VMULPD    Y6, Y0, Y10; \
	VMULPD    Y7, Y4, Y11; \
	VSUBPD    Y11, Y10, Y10; \
	VMULPD    Y8, Y1, Y11; \
	VMULPD    Y9, Y2, Y12; \
	VSUBPD    Y12, Y11, Y11; \
	VSUBPD    Y11, Y10, Y10; \
	VBLENDVPD Y5, Y10, Y6, Y10

// im a' = (cs*ai + 0*ar) - (snr*bi + (-sni)*br)
#define ROTIMA \
	VMULPD    Y7, Y0, Y10; \
	VMULPD    Y6, Y4, Y11; \
	VADDPD    Y11, Y10, Y10; \
	VMULPD    Y9, Y1, Y11; \
	VMULPD    Y8, Y2, Y12; \
	VADDPD    Y12, Y11, Y11; \
	VSUBPD    Y11, Y10, Y10; \
	VBLENDVPD Y5, Y10, Y7, Y10

// re b' = (snr*ar - sni*ai) + (cs*br - 0*bi)
#define ROTREB \
	VMULPD    Y6, Y1, Y10; \
	VMULPD    Y7, Y2, Y11; \
	VSUBPD    Y11, Y10, Y10; \
	VMULPD    Y8, Y0, Y11; \
	VMULPD    Y9, Y4, Y12; \
	VSUBPD    Y12, Y11, Y11; \
	VADDPD    Y11, Y10, Y10; \
	VBLENDVPD Y5, Y10, Y8, Y10

// im b' = (snr*ai + sni*ar) + (cs*bi + 0*br)
#define ROTIMB \
	VMULPD    Y7, Y1, Y10; \
	VMULPD    Y6, Y2, Y11; \
	VADDPD    Y11, Y10, Y10; \
	VMULPD    Y9, Y0, Y11; \
	VMULPD    Y8, Y4, Y12; \
	VADDPD    Y12, Y11, Y11; \
	VADDPD    Y11, Y10, Y10; \
	VBLENDVPD Y5, Y10, Y9, Y10

// func jacobiRotateAVX2(re, im []float64, nb int, quads *JacobiQuad, nq int)
// Per row, per quad, on the lanes its mask sets:
// re a' = (cs*ar - 0*ai) - (snr*br - (-sni)*bi)
// im a' = (cs*ai + 0*ar) - (snr*bi + (-sni)*br)
// re b' = (snr*ar - sni*ai) + (cs*br - 0*bi)
// im b' = (snr*ai + sni*ar) + (cs*bi + 0*br)
TEXT ·jacobiRotateAVX2(SB), NOSPLIT, $0-72
	JACOBIROWS
	VPCMPEQQ Y3, Y3, Y3
	VPSLLQ   $63, Y3, Y3        // sign bit
	VXORPD   Y4, Y4, Y4         // the 0 of complex(cs, 0)
	CMPQ     R8, CX
	JGE      jrotdone

jrotrow:
	MOVQ R12, DI
	MOVQ R13, SI

jrotquad:
	QUADCOLS
	VMOVUPD JacobiQuad_Cs(DI), Y0
	VMOVUPD JacobiQuad_SnRe(DI), Y1
	VXORPD  JacobiQuad_SnIm(DI), Y3, Y2  // -sni
	VMOVUPD JacobiQuad_Mask(DI), Y5
	CMPQ    JacobiQuad_Lanes(DI), $4
	JLT     jrotpart
	VMOVUPD (R8)(AX*1), Y6               // ar
	VMOVUPD (R9)(AX*1), Y7               // ai
	VPERMPD $0x1b, (R8)(BX*1), Y8        // br
	VPERMPD $0x1b, (R9)(BX*1), Y9        // bi
	ROTREA
	VMOVUPD Y10, (R8)(AX*1)
	ROTIMA
	VMOVUPD Y10, (R9)(AX*1)
	VXORPD  Y2, Y3, Y2                   // the b' terms take sni itself
	ROTREB
	VPERMPD $0x1b, Y10, Y10
	VMOVUPD Y10, (R8)(BX*1)
	ROTIMB
	VPERMPD $0x1b, Y10, Y10
	VMOVUPD Y10, (R9)(BX*1)

jrotnext:
	ADDQ $JacobiQuad__size, DI
	DECQ SI
	JNZ  jrotquad
	ADDQ DX, R8
	ADDQ DX, R9
	CMPQ R8, CX
	JLT  jrotrow

jrotdone:
	VZEROUPPER
	RET

jrotpart:
	TAILMASKS(Y14, Y13)
	VMASKMOVPD (R8)(AX*1), Y14, Y6
	VMASKMOVPD (R9)(AX*1), Y14, Y7
	VMASKMOVPD (R8)(BX*1), Y13, Y8
	VMASKMOVPD (R9)(BX*1), Y13, Y9
	VPERMPD    $0x1b, Y8, Y8
	VPERMPD    $0x1b, Y9, Y9
	ROTREA
	VMASKMOVPD Y10, Y14, (R8)(AX*1)
	ROTIMA
	VMASKMOVPD Y10, Y14, (R9)(AX*1)
	VXORPD     Y2, Y3, Y2
	ROTREB
	VPERMPD    $0x1b, Y10, Y10
	VMASKMOVPD Y10, Y13, (R8)(BX*1)
	ROTIMB
	VPERMPD    $0x1b, Y10, Y10
	VMASKMOVPD Y10, Y13, (R9)(BX*1)
	JMP        jrotnext
