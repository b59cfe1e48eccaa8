package soa

// Explicit SIMD leaf kernels for the float64 plane loops.
//
// The gc compiler does not autovectorize, so the split-complex layout alone
// only buys the fused single-sweep structure and unit-stride streaming; the
// multiplicative win the planar layout exists for comes from these
// hand-written AVX2 kernels, dispatched at runtime (HasAVX2) with the
// scalar bodies below as the portable fallback.
//
// Bit-exactness contract: every asm kernel performs, per element, exactly
// the multiplies and adds of its scalar body in the same order. VMULPD /
// VADDPD round identically to the scalar instructions lane by lane, and no
// FMA contraction is used anywhere (a fused multiply-add skips the
// intermediate rounding and would break the SoA==AoS bitwise parity the
// solver tests pin). Callers must guarantee every source slice is at least
// as long as dst; the kernels index all slices by dst's length without
// re-checking.

// AxpyF64 performs dst[i] += c*src[i].
//
//cbs:hotpath
func AxpyF64(dst, src []float64, c float64) {
	if HasAVX2 {
		axpyAVX2(dst, src, c)
		return
	}
	axpyScalar(dst, src, c)
}

//cbs:hotpath
func axpyScalar(dst, src []float64, c float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += c * src[i]
	}
}

// AxpyPairF64 performs dstRe[i] += c*srcRe[i]; dstIm[i] += c*srcIm[i] —
// the real-coefficient two-plane axpy of the nonlocal projector term.
//
//cbs:hotpath
func AxpyPairF64(dstRe, dstIm, srcRe, srcIm []float64, c float64) {
	if HasAVX2 {
		axpyPairAVX2(dstRe, dstIm, srcRe, srcIm, c)
		return
	}
	axpyScalar(dstRe, srcRe, c)
	axpyScalar(dstIm, srcIm, c)
}

// ScalePairF64 performs dstRe[i] = c*srcRe[i]; dstIm[i] = c*srcIm[i] —
// the diagonal term's overwrite-scale of both planes.
//
//cbs:hotpath
func ScalePairF64(dstRe, dstIm, srcRe, srcIm []float64, c float64) {
	if HasAVX2 {
		scalePairAVX2(dstRe, dstIm, srcRe, srcIm, c)
		return
	}
	scalePairScalar(dstRe, dstIm, srcRe, srcIm, c)
}

//cbs:hotpath
func scalePairScalar(dstRe, dstIm, srcRe, srcIm []float64, c float64) {
	n := len(dstRe)
	dstIm = dstIm[:n]
	srcRe = srcRe[:n]
	srcIm = srcIm[:n]
	for i := range dstRe {
		dstRe[i] = c * srcRe[i]
		dstIm[i] = c * srcIm[i]
	}
}

// AxpyCplxF64 performs the split complex axpy
// dstRe[i] += cr*srcRe[i] - ci*srcIm[i]; dstIm[i] += cr*srcIm[i] + ci*srcRe[i].
//
//cbs:hotpath
func AxpyCplxF64(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	if HasAVX2 {
		axpyCplxAVX2(dstRe, dstIm, srcRe, srcIm, cr, ci)
		return
	}
	axpyCplxScalar(dstRe, dstIm, srcRe, srcIm, cr, ci)
}

//cbs:hotpath
func axpyCplxScalar(dstRe, dstIm, srcRe, srcIm []float64, cr, ci float64) {
	n := len(dstRe)
	dstIm = dstIm[:n]
	srcRe = srcRe[:n]
	srcIm = srcIm[:n]
	for i := range dstRe {
		sr, si := srcRe[i], srcIm[i]
		dstRe[i] += cr*sr - ci*si
		dstIm[i] += cr*si + ci*sr
	}
}

// AddPairScaledF64 performs dst[i] += c*(p[i]+m[i]) — one symmetric
// stencil offset pair.
//
//cbs:hotpath
func AddPairScaledF64(dst, p, m []float64, c float64) {
	if HasAVX2 {
		addPairScaledAVX2(dst, p, m, c)
		return
	}
	addPairScaledScalar(dst, p, m, c)
}

//cbs:hotpath
func addPairScaledScalar(dst, p, m []float64, c float64) {
	n := len(dst)
	p = p[:n]
	m = m[:n]
	for i := range dst {
		dst[i] += c * (p[i] + m[i])
	}
}

// FusePair4F64 fuses four pair-grouped offset sweeps: per element,
// dst += c1*(p1+m1), then += c2*(p2+m2), then c3, then c4, in that order.
//
//cbs:hotpath
func FusePair4F64(dst, p1, m1, p2, m2, p3, m3, p4, m4 []float64, c1, c2, c3, c4 float64) {
	if HasAVX2 {
		fusePair4AVX2(dst, p1, m1, p2, m2, p3, m3, p4, m4, c1, c2, c3, c4)
		return
	}
	fusePair4Scalar(dst, p1, m1, p2, m2, p3, m3, p4, m4, c1, c2, c3, c4)
}

//cbs:hotpath
func fusePair4Scalar(dst, p1, m1, p2, m2, p3, m3, p4, m4 []float64, c1, c2, c3, c4 float64) {
	n := len(dst)
	p1 = p1[:n]
	m1 = m1[:n]
	p2 = p2[:n]
	m2 = m2[:n]
	p3 = p3[:n]
	m3 = m3[:n]
	p4 = p4[:n]
	m4 = m4[:n]
	for i := range dst {
		v := dst[i] + c1*(p1[i]+m1[i])
		v += c2 * (p2[i] + m2[i])
		v += c3 * (p3[i] + m3[i])
		v += c4 * (p4[i] + m4[i])
		dst[i] = v
	}
}

// FuseSingle8F64 fuses eight single-plane scaled adds: per element,
// dst += c1*s1, += c1*s2, += c2*s3, += c2*s4, ..., += c4*s8, in that order
// (the z-tail pattern: +d and -d share a coefficient but stay separate
// terms).
//
//cbs:hotpath
func FuseSingle8F64(dst, s1, s2, s3, s4, s5, s6, s7, s8 []float64, c1, c2, c3, c4 float64) {
	if HasAVX2 {
		fuseSingle8AVX2(dst, s1, s2, s3, s4, s5, s6, s7, s8, c1, c2, c3, c4)
		return
	}
	fuseSingle8Scalar(dst, s1, s2, s3, s4, s5, s6, s7, s8, c1, c2, c3, c4)
}

//cbs:hotpath
func fuseSingle8Scalar(dst, s1, s2, s3, s4, s5, s6, s7, s8 []float64, c1, c2, c3, c4 float64) {
	n := len(dst)
	s1 = s1[:n]
	s2 = s2[:n]
	s3 = s3[:n]
	s4 = s4[:n]
	s5 = s5[:n]
	s6 = s6[:n]
	s7 = s7[:n]
	s8 = s8[:n]
	for i := range dst {
		v := dst[i] + c1*s1[i]
		v += c1 * s2[i]
		v += c2 * s3[i]
		v += c2 * s4[i]
		v += c3 * s5[i]
		v += c3 * s6[i]
		v += c4 * s7[i]
		v += c4 * s8[i]
		dst[i] = v
	}
}

// ---- column-lane kernels ------------------------------------------------
//
// The three kernels below run the per-column Krylov recurrences of the
// block solver over whole n x nb blocks. A block row Re[i*nb : (i+1)*nb]
// holds the nb columns contiguously, so one vector spans four columns and
// the per-column coefficients a[c] ride in the matching lanes: lane =
// column. Every element still sees exactly the multiplies and adds of the
// scalar body in the same order, and every column's sum runs through its
// own accumulator in row order, so the kernels are bit-identical to the
// scalar siblings on any nb (whole vectors for nb&^3 columns, the same
// arithmetic one lane at a time for the rest).
//
// mask[c] is all-ones for a live column and zero for a frozen one. A frozen
// column is never written with a computed value: the asm blends the old
// element back (VBLENDVPD), the scalar bodies skip it, so a column holding
// Inf/NaN after a breakdown stays bit-unchanged — a multiply by zero would
// not do that.
//
// A conjugated or negated coefficient is passed as such by the caller:
// (-a)*b is the exact negation of a*b and x-(-y) is x+y in IEEE arithmetic,
// so dst += conj(a)*src costs no extra rounding. dst -= a*src, run as
// dst += (-a)*src, likewise rounds identically; the one representable
// difference is the sign of an exactly cancelling product sum landing on a
// -0 destination (+0 instead of -0), which the block solver cannot observe:
// no comparison tells the zeros apart and every divisor passes the
// breakdown test first.

// AxpyCols performs dst[:,c] += (aRe[c] + i*aIm[c]) * src[:,c] on every
// column c whose mask lane is set.
//
//cbs:hotpath
func AxpyCols[F Float](dst, src *Block[F], aRe, aIm []F, mask []uint64) {
	nb := dst.nb
	if src.n != dst.n || src.nb != nb || len(aRe) != nb || len(aIm) != nb || len(mask) != nb {
		panic("soa: AxpyCols shape mismatch")
	}
	if HasAVX2 {
		if dr, ok := any(dst.Re).([]float64); ok {
			axpyColsAVX2(dr, any(dst.Im).([]float64), any(src.Re).([]float64), any(src.Im).([]float64),
				any(aRe).([]float64), any(aIm).([]float64), mask)
			return
		}
	}
	axpyColsScalar(dst.Re, dst.Im, src.Re, src.Im, aRe, aIm, mask)
}

//cbs:hotpath
func axpyColsScalar[F Float](dstRe, dstIm, srcRe, srcIm, aRe, aIm []F, mask []uint64) {
	nb := len(aRe)
	aIm = aIm[:nb]
	mask = mask[:nb]
	for o := 0; o+nb <= len(dstRe); o += nb {
		dr := dstRe[o:][:nb]
		di := dstIm[o:][:nb]
		sr := srcRe[o:][:nb]
		si := srcIm[o:][:nb]
		for c, ar := range aRe {
			if mask[c] == 0 {
				continue
			}
			ai := aIm[c]
			vr, vi := sr[c], si[c]
			dr[c] += ar*vr - ai*vi
			di[c] += ar*vi + ai*vr
		}
	}
}

// XpayCols performs p[:,c] = r[:,c] + (bRe[c] + i*bIm[c]) * p[:,c] on every
// column c whose mask lane is set.
//
//cbs:hotpath
func XpayCols[F Float](p, r *Block[F], bRe, bIm []F, mask []uint64) {
	nb := p.nb
	if r.n != p.n || r.nb != nb || len(bRe) != nb || len(bIm) != nb || len(mask) != nb {
		panic("soa: XpayCols shape mismatch")
	}
	if HasAVX2 {
		if pr, ok := any(p.Re).([]float64); ok {
			xpayColsAVX2(pr, any(p.Im).([]float64), any(r.Re).([]float64), any(r.Im).([]float64),
				any(bRe).([]float64), any(bIm).([]float64), mask)
			return
		}
	}
	xpayColsScalar(p.Re, p.Im, r.Re, r.Im, bRe, bIm, mask)
}

//cbs:hotpath
func xpayColsScalar[F Float](pRe, pIm, rRe, rIm, bRe, bIm []F, mask []uint64) {
	nb := len(bRe)
	bIm = bIm[:nb]
	mask = mask[:nb]
	for o := 0; o+nb <= len(pRe); o += nb {
		pr := pRe[o:][:nb]
		pi := pIm[o:][:nb]
		rr := rRe[o:][:nb]
		ri := rIm[o:][:nb]
		for c, br := range bRe {
			if mask[c] == 0 {
				continue
			}
			bi := bIm[c]
			vr, vi := pr[c], pi[c]
			pr[c] = rr[c] + (br*vr - bi*vi)
			pi[c] = ri[c] + (br*vi + bi*vr)
		}
	}
}

// DotCols computes the conjugated column dots
// dRe[c] + i*dIm[c] = sum_i conj(x[i,c]) * y[i,c], each column summed in
// row order through its own accumulator. With y == x, dRe is the squared
// column norm (the same products and sums as re*re + im*im).
//
//cbs:hotpath
func DotCols[F Float](dRe, dIm []F, x, y *Block[F]) {
	nb := x.nb
	if y.n != x.n || y.nb != nb || len(dRe) != nb || len(dIm) != nb {
		panic("soa: DotCols shape mismatch")
	}
	if HasAVX2 {
		if xr, ok := any(x.Re).([]float64); ok {
			dotColsAVX2(any(dRe).([]float64), any(dIm).([]float64),
				xr, any(x.Im).([]float64), any(y.Re).([]float64), any(y.Im).([]float64))
			return
		}
	}
	dotColsScalar(dRe, dIm, x.Re, x.Im, y.Re, y.Im)
}

//cbs:hotpath
func dotColsScalar[F Float](dRe, dIm, xRe, xIm, yRe, yIm []F) {
	nb := len(dRe)
	dIm = dIm[:nb]
	for c := range dRe {
		dRe[c] = 0
		dIm[c] = 0
	}
	for o := 0; o+nb <= len(xRe); o += nb {
		xr := xRe[o:][:nb]
		xi := xIm[o:][:nb]
		yr := yRe[o:][:nb]
		yi := yIm[o:][:nb]
		for c := range dRe {
			ar, ai := xr[c], xi[c]
			br, bi := yr[c], yi[c]
			dRe[c] += ar*br + ai*bi
			dIm[c] += ar*bi - ai*br
		}
	}
}
