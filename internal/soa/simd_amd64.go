//go:build amd64

package soa

import "os"

// HasAVX2 reports whether the AVX2 plane kernels are usable on this CPU
// (AVX2 present, the OS saves YMM state, and the CBS_NO_AVX2 kill switch is
// unset). Checked once at init; the kernel entry points branch on it per call.
var HasAVX2 = detectAVX2()

func detectAVX2() bool {
	if os.Getenv("CBS_NO_AVX2") != "" {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
func xgetbv() (lo, hi uint32)

// The AVX2 kernels; see simd_amd64.s, stencil_amd64.s, jacobi_amd64.s,
// csr_amd64.s and zrow_amd64.s. Each is the exact vector transcription of
// its *Scalar sibling: same per-element multiply/add order, no FMA. Plane
// and row arguments must be equally long; the gather and the scatter
// return the position of the first out-of-range sample, or -1.

//cbs:hotpath
//go:noescape
func axpyCplxAVX2(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64)

//cbs:hotpath
//go:noescape
func stencilRowAVX2(s *Stencil, c *StencilCoef, vloc, vRe, vIm, oRe, oIm []float64, nb, iz, iy int)

//cbs:hotpath
//go:noescape
func gatherDotAVX2(sumsRe, sumsIm, vRe, vIm []float64, n, nb int, idx []int32, val []float64) int

//cbs:hotpath
//go:noescape
func scatterAxpyAVX2(oRe, oIm []float64, n, nb int, idx []int32, val, sumsRe, sumsIm []float64) int

//cbs:hotpath
//go:noescape
func alphaColsAVX2(pl *[8][]float64, co *[2][]float64, mask []uint64, sums *[4][]float64)

//cbs:hotpath
//go:noescape
func betaColsAVX2(pl *[12][]float64, co *[4][]float64, maskA, maskB []uint64)

//cbs:hotpath
//go:noescape
func dotColsAVX2(dRe, dIm, xRe, xIm, yRe, yIm []float64)

//cbs:hotpath
//go:noescape
func jacobiDotsAVX2(re, im []float64, nb int, quads *JacobiQuad, nq int)

//cbs:hotpath
//go:noescape
func jacobiRotateAVX2(re, im []float64, nb int, quads *JacobiQuad, nq int)

//cbs:hotpath
//go:noescape
func csrShiftedAVX2(oRe, oIm, vRe, vIm []float64, nb int, shift float64, d []float64, a *CSR)

//cbs:hotpath
//go:noescape
func csrAccumAVX2(oRe, oIm, vRe, vIm []float64, nb int, cr, ci float64, a *CSR)

//cbs:hotpath
//go:noescape
func subMulRowAVX2(dst, src []complex128, ar, ai float64)

//cbs:hotpath
//go:noescape
func addMulRowAVX2(dst, src []complex128, ar, ai float64)
