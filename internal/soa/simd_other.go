//go:build !amd64

package soa

// HasAVX2 is false off amd64; the exported kernels run their scalar bodies
// and the *AVX2 stubs below are unreachable.
const HasAVX2 = false

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32) {
	panic("soa: cpuid is amd64-only")
}

func xgetbv() (lo, hi uint32) {
	panic("soa: xgetbv is amd64-only")
}

//cbs:hotpath
func axpyCplxAVX2(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func stencilRowAVX2(s *Stencil, c *StencilCoef, vloc, vRe, vIm, oRe, oIm []float64, nb, iz, iy int) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func gatherDotAVX2(sumsRe, sumsIm, vRe, vIm []float64, n, nb int, idx []int32, val []float64) int {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func scatterAxpyAVX2(oRe, oIm []float64, n, nb int, idx []int32, val, sumsRe, sumsIm []float64) int {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func alphaColsAVX2(pl *[8][]float64, co *[2][]float64, mask []uint64, sums *[4][]float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func betaColsAVX2(pl *[12][]float64, co *[4][]float64, maskA, maskB []uint64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func dotColsAVX2(dRe, dIm, xRe, xIm, yRe, yIm []float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func jacobiDotsAVX2(re, im []float64, nb int, quads *JacobiQuad, nq int) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func jacobiRotateAVX2(re, im []float64, nb int, quads *JacobiQuad, nq int) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func csrShiftedAVX2(oRe, oIm, vRe, vIm []float64, nb int, shift float64, d []float64, a *CSR) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func csrAccumAVX2(oRe, oIm, vRe, vIm []float64, nb int, cr, ci float64, a *CSR) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func subMulRowAVX2(dst, src []complex128, ar, ai float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func addMulRowAVX2(dst, src []complex128, ar, ai float64) {
	panic("soa: no AVX2 kernels on this architecture")
}
