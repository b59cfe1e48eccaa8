package soa

// Interleaved-complex row kernels: the dense updates under zlinalg's LU
// factorization, substitutions, matrix product and axpy, which run on
// row-major []complex128 rather than on planes. Go forms a*x, a = ar + i ai,
// x = xr + i xi, as (ar*xr - ai*xi, ar*xi + ai*xr). The AVX2 arm keeps that
// order with two elements per vector: p1 = ar*x, p2 = ai*swap(x)
// (VPERMILPD), and VADDSUBPD p1, p2 gives (ar*xr - ai*xi, ar*xi + ai*xr) on
// each element's (re, im) pair, rounded once per operation as the scalar
// code rounds it; a final VSUBPD or VADDPD finishes dst -= a*x or
// dst += a*x. No FMA, so every element gets the bits of the Go loop.

// SubMulRow performs dst[k] -= a*src[k] over equally long rows.
//
//cbs:hotpath
func SubMulRow(dst []complex128, a complex128, src []complex128) {
	if len(src) != len(dst) {
		panic("soa: SubMulRow length mismatch")
	}
	if HasAVX2 && len(dst) > 0 {
		subMulRowAVX2(dst, src, real(a), imag(a))
		return
	}
	subMulRowScalar(dst, a, src)
}

//cbs:hotpath
func subMulRowScalar(dst []complex128, a complex128, src []complex128) {
	src = src[:len(dst)]
	for k := range dst {
		dst[k] -= a * src[k]
	}
}

// AddMulRow performs dst[k] += a*src[k] over equally long rows.
//
//cbs:hotpath
func AddMulRow(dst []complex128, a complex128, src []complex128) {
	if len(src) != len(dst) {
		panic("soa: AddMulRow length mismatch")
	}
	if HasAVX2 && len(dst) > 0 {
		addMulRowAVX2(dst, src, real(a), imag(a))
		return
	}
	addMulRowScalar(dst, a, src)
}

//cbs:hotpath
func addMulRowScalar(dst []complex128, a complex128, src []complex128) {
	src = src[:len(dst)]
	for k := range dst {
		dst[k] += a * src[k]
	}
}
