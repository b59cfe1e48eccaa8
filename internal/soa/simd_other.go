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
func axpyAVX2(dst, src []float64, c float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func axpyPairAVX2(dstRe, dstIm, srcRe, srcIm []float64, c float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func scalePairAVX2(dstRe, dstIm, srcRe, srcIm []float64, c float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func axpyCplxAVX2(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func addPairScaledAVX2(dst, p, m []float64, c float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func fusePair4AVX2(dst, p1, m1, p2, m2, p3, m3, p4, m4 []float64, c1, c2, c3, c4 float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func fuseSingle8AVX2(dst, s1, s2, s3, s4, s5, s6, s7, s8 []float64, c1, c2, c3, c4 float64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func axpyColsAVX2(dstRe, dstIm, srcRe, srcIm, aRe, aIm []float64, mask []uint64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func xpayColsAVX2(pRe, pIm, rRe, rIm, bRe, bIm []float64, mask []uint64) {
	panic("soa: no AVX2 kernels on this architecture")
}

//cbs:hotpath
func dotColsAVX2(dRe, dIm, xRe, xIm, yRe, yIm []float64) {
	panic("soa: no AVX2 kernels on this architecture")
}
