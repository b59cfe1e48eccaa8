package soa

// Explicit SIMD kernels for the float64 plane loops.
//
// The gc compiler does not autovectorize, so the split-complex layout alone
// only buys unit-stride streaming over real planes; the multiplicative win
// the planar layout exists for comes from hand-written AVX2 kernels,
// dispatched at runtime (HasAVX2) with a scalar sibling of each as the
// portable arm: the cell-coupling axpy and the column-lane Krylov kernels
// in this file, the stencil row and the projector gather/scatter in
// stencil.go.
//
// Bit-exactness contract: every asm kernel performs, per element, exactly
// the multiplies and adds of its scalar sibling in the same order. VMULPD /
// VADDPD round identically to the scalar instructions lane by lane, and no
// FMA contraction is used anywhere (a fused multiply-add skips the
// intermediate rounding and would break the SoA==AoS bitwise parity the
// solver tests pin).

// AxpyRows performs the complex axpy of whole block rows,
// dst[d0+i, :] += (cr + i*ci) * src[s0+i, :] for i < rows: the cell
// couplings of H+ and H-, where rows is one or more z planes.
//
//cbs:hotpath
func AxpyRows[F Float](dst, src *Block[F], d0, s0, rows int, cr, ci F) {
	nb := dst.nb
	if src.nb != nb || d0 < 0 || s0 < 0 || rows < 0 || d0+rows > dst.n || s0+rows > src.n {
		panic("soa: AxpyRows shape mismatch")
	}
	dRe, dIm := dst.Re[d0*nb:(d0+rows)*nb], dst.Im[d0*nb:(d0+rows)*nb]
	sRe, sIm := src.Re[s0*nb:(s0+rows)*nb], src.Im[s0*nb:(s0+rows)*nb]
	if HasAVX2 {
		if dr, ok := any(dRe).([]float64); ok {
			axpyCplxAVX2(dr, any(dIm).([]float64), any(sRe).([]float64), any(sIm).([]float64),
				float64(cr), float64(ci))
			return
		}
	}
	axpyCplxScalar(dRe, dIm, sRe, sIm, cr, ci)
}

// axpyCplxScalar performs dstRe[i] += cr*srcRe[i] - ci*srcIm[i];
// dstIm[i] += cr*srcIm[i] + ci*srcRe[i] over equally long planes.
//
//cbs:hotpath
func axpyCplxScalar[F Float](dstRe, dstIm, srcRe, srcIm []F, cr, ci F) {
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
