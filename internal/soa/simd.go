package soa

// Explicit SIMD kernels for the float64 plane loops.
//
// The gc compiler does not autovectorize, so the split-complex layout alone
// only buys unit-stride streaming over real planes; the multiplicative win
// the planar layout exists for comes from hand-written AVX2 kernels,
// dispatched at runtime (HasAVX2) with a scalar sibling of each as the
// portable arm: the cell-coupling axpy and the column-lane Krylov kernels
// in this file, the stencil row and the projector gather/scatter in
// stencil.go, the Jacobi pair kernels in jacobi.go, the interleaved
// complex row kernels in zrow.go.
//
// Bit-exactness contract: every asm kernel performs, per element, exactly
// the multiplies and adds of its scalar sibling in the same order. VMULPD /
// VADDPD round identically to the scalar instructions lane by lane, and no
// FMA contraction is used anywhere (a fused multiply-add skips the
// intermediate rounding and would break the bit goldens the solver tests
// pin).

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
// The kernels below run the per-column Krylov recurrences of the block
// solver over whole n x nb blocks, three passes per iteration: DotCols for
// <PD, Q>, AlphaCols for the residual update fused with the residual sums
// of its result, BetaCols for the solution update fused with the direction
// update (the old P it reads serves both). A block row Re[i*nb : (i+1)*nb]
// holds the nb columns contiguously, so one vector spans four columns and
// the per-column coefficients a[c] ride in the matching lanes: lane =
// column. Every element still sees exactly the multiplies and adds of the
// scalar body in the same order, and every column's sum runs through its
// own accumulator in row order, so the kernels are bit-identical to the
// scalar siblings on any nb. The asm walks the block one column chunk at a
// time (16, 4 or 1 columns for DotCols; for the fused steps 8, 4 or 1 in
// row tiles of about 1 KiB per plane) with the chunk's sums in registers
// down the rows; the scalar bodies walk rows outermost. Both orders give
// each column the same sequence of operations. No pass touches more than
// twelve planes: the planes of a solve share their 4 KiB offsets, so more
// would overflow the L1 set their rows map to.
//
// Mask[c] is all-ones for a live column and zero for a frozen one. A frozen
// column is never written with a computed value: the asm blends the old
// element back (VBLENDVPD), the scalar bodies skip it, so a column holding
// Inf/NaN after a breakdown stays bit-unchanged — a multiply by zero would
// not do that.
//
// A conjugated or negated coefficient is formed by negating its parts
// (exact: the sign bit flips), once per chunk in the asm, per element in
// the scalar bodies: (-a)*b is the exact negation of a*b and x-(-y) is x+y
// in IEEE arithmetic, so dst += conj(a)*src costs no extra rounding.
// dst -= a*src, run as dst += (-a)*src, likewise rounds identically; the
// one representable difference is the sign of an exactly cancelling
// product sum landing on a -0 destination (+0 instead of -0), which the
// block solver cannot observe: no comparison tells the zeros apart and
// every divisor passes the breakdown test first.

// Krylov is the block set of one dual-BiCG solve, all n x nb: the solutions
// X and XD, the residuals R and RD, the directions P and PD and their
// images Q = A P and QD = A^dagger PD. The blocks must be distinct.
type Krylov[F Float] struct {
	X, XD, R, RD, P, PD, Q, QD *Block[F]
}

// ColCoef is one column-lane step's per-column coefficient
// a[c] = Re[c] + i*Im[c] and lane Mask, each of nb entries.
type ColCoef[F Float] struct {
	Re, Im []F
	Mask   []uint64
}

// The blocks of a Krylov set in check's order; written names them by bit.
const (
	kX = 1 << iota
	kXD
	kR
	kRD
	kP
	kPD
)

// check panics unless every block of k is n x nb with nb = len(a.Mask),
// a's parts hold nb entries, and no block whose bit is set in written (X,
// XD, R, RD, P, PD from bit 0) shares its first element with another block
// of k.
//
//cbs:hotpath
func (k *Krylov[F]) check(a *ColCoef[F], written uint) {
	nb := len(a.Mask)
	bl := [8]*Block[F]{k.X, k.XD, k.R, k.RD, k.P, k.PD, k.Q, k.QD}
	n := bl[0].n
	for _, b := range bl {
		if b.n != n || b.nb != nb {
			panic("soa: Krylov block shape mismatch")
		}
	}
	if len(a.Re) != nb || len(a.Im) != nb {
		panic("soa: ColCoef length mismatch")
	}
	if n == 0 {
		return
	}
	for i, w := range bl {
		if written&(1<<i) == 0 {
			continue
		}
		for j, b := range bl {
			if i != j && &w.Re[0] == &b.Re[0] {
				panic("soa: Krylov blocks alias")
			}
		}
	}
}

// AlphaCols is the residual half of the alpha step of the block dual-BiCG
// recurrence and the residual sums that follow it, in one pass over R, RD,
// Q and QD. On every column c whose mask lane is set, with
// a = a.Re[c] + i*a.Im[c]:
//
//	R -= a*Q, RD -= conj(a)*QD
//
// run as R += (-a)*Q, RD += (-conj(a))*QD (see above), each element as
// dst += cr*sr - ci*si, dst += cr*si + ci*sr. Then, over every column,
// frozen ones included, dotRe[c] + i*dotIm[c] is <RD_c, R_c>,
// nr[c] = ||R_c||^2 and nrd[c] = ||RD_c||^2 of the updated blocks: the
// sums DotCols(RD, R), DotCols(R, R) and DotCols(RD, RD) return.
//
//cbs:hotpath
func AlphaCols[F Float](k *Krylov[F], a *ColCoef[F], dotRe, dotIm, nr, nrd []F) {
	k.check(a, kR|kRD)
	nb := len(a.Mask)
	if len(dotRe) != nb || len(dotIm) != nb || len(nr) != nb || len(nrd) != nb {
		panic("soa: AlphaCols sums length mismatch")
	}
	pl := [8][]F{k.R.Re, k.R.Im, k.RD.Re, k.RD.Im, k.Q.Re, k.Q.Im, k.QD.Re, k.QD.Im}
	co := [2][]F{a.Re, a.Im}
	sums := [4][]F{dotRe, dotIm, nr, nrd}
	if HasAVX2 {
		if p64, ok := any(&pl).(*[8][]float64); ok {
			alphaColsAVX2(p64, any(&co).(*[2][]float64), a.Mask, any(&sums).(*[4][]float64))
			return
		}
	}
	alphaColsScalar(&pl, &co, a.Mask, &sums)
}

// alphaColsScalar: pl holds the planes of R, RD, Q, QD (re, im each), co
// the coefficient parts Re, Im, sums receives dotRe, dotIm, nr, nrd.
//
//cbs:hotpath
func alphaColsScalar[F Float](pl *[8][]F, co *[2][]F, mask []uint64, sums *[4][]F) {
	nb := len(mask)
	aRe, aIm := co[0][:nb], co[1][:nb]
	dRe, dIm, sr, srd := sums[0][:nb], sums[1][:nb], sums[2][:nb], sums[3][:nb]
	for c := range dRe {
		dRe[c], dIm[c], sr[c], srd[c] = 0, 0, 0, 0
	}
	for o := 0; o+nb <= len(pl[0]); o += nb {
		rr, ri := pl[0][o:][:nb], pl[1][o:][:nb]
		rdr, rdi := pl[2][o:][:nb], pl[3][o:][:nb]
		qr, qi := pl[4][o:][:nb], pl[5][o:][:nb]
		qdr, qdi := pl[6][o:][:nb], pl[7][o:][:nb]
		for c, m := range mask {
			if m != 0 {
				axpyLane(&rr[c], &ri[c], qr[c], qi[c], -aRe[c], -aIm[c])
				axpyLane(&rdr[c], &rdi[c], qdr[c], qdi[c], -aRe[c], aIm[c])
			}
			ar, ai, br, bi := rdr[c], rdi[c], rr[c], ri[c]
			dRe[c] += ar*br + ai*bi
			dIm[c] += ar*bi - ai*br
			sr[c] += br*br + bi*bi
			srd[c] += ar*ar + ai*ai
		}
	}
}

// axpyLane performs d += (cr + i*ci) * (vr + i*vi) on one element.
//
//cbs:hotpath
func axpyLane[F Float](dr, di *F, vr, vi, cr, ci F) {
	*dr += cr*vr - ci*vi
	*di += cr*vi + ci*vr
}

// BetaCols ends an iteration of the block dual-BiCG recurrence in one pass
// over X, XD, P, PD, R and RD: the solution half of the alpha step on every
// column a.Mask selects, then the direction update on every column b.Mask
// selects, both from the P and PD the pass reads,
//
//	X += a*P, XD += conj(a)*PD, P = R + b*P, PD = RD + conj(b)*PD
//
// each element as x += ar*pr - ai*pi, x += ar*pi + ai*pr and
// p = r + (br*pr - bi*pi), p = r + (br*pi + bi*pr). Q and QD are not
// touched. An all-zero b.Mask leaves P and PD bit-unchanged.
//
//cbs:hotpath
func BetaCols[F Float](k *Krylov[F], a, b *ColCoef[F]) {
	k.check(a, kX|kXD|kP|kPD)
	k.check(b, 0)
	pl := [12][]F{k.P.Re, k.P.Im, k.PD.Re, k.PD.Im, k.R.Re, k.R.Im, k.RD.Re, k.RD.Im,
		k.X.Re, k.X.Im, k.XD.Re, k.XD.Im}
	co := [4][]F{a.Re, a.Im, b.Re, b.Im}
	if HasAVX2 {
		if p64, ok := any(&pl).(*[12][]float64); ok {
			betaColsAVX2(p64, any(&co).(*[4][]float64), a.Mask, b.Mask)
			return
		}
	}
	betaColsScalar(&pl, &co, a.Mask, b.Mask)
}

// betaColsScalar: pl holds the planes of P, PD, R, RD, X, XD (re, im
// each), co the coefficient parts Re, Im of a, then of b.
//
//cbs:hotpath
func betaColsScalar[F Float](pl *[12][]F, co *[4][]F, maskA, maskB []uint64) {
	nb := len(maskA)
	aRe, aIm, bRe, bIm := co[0][:nb], co[1][:nb], co[2][:nb], co[3][:nb]
	maskB = maskB[:nb]
	for o := 0; o+nb <= len(pl[0]); o += nb {
		pr, pi := pl[0][o:][:nb], pl[1][o:][:nb]
		pdr, pdi := pl[2][o:][:nb], pl[3][o:][:nb]
		rr, ri := pl[4][o:][:nb], pl[5][o:][:nb]
		rdr, rdi := pl[6][o:][:nb], pl[7][o:][:nb]
		xr, xi := pl[8][o:][:nb], pl[9][o:][:nb]
		xdr, xdi := pl[10][o:][:nb], pl[11][o:][:nb]
		for c, m := range maskA {
			if m != 0 {
				axpyLane(&xr[c], &xi[c], pr[c], pi[c], aRe[c], aIm[c])
				axpyLane(&xdr[c], &xdi[c], pdr[c], pdi[c], aRe[c], -aIm[c])
			}
			if maskB[c] != 0 {
				xpayLane(&pr[c], &pi[c], rr[c], ri[c], bRe[c], bIm[c])
				xpayLane(&pdr[c], &pdi[c], rdr[c], rdi[c], bRe[c], -bIm[c])
			}
		}
	}
}

// xpayLane performs p = r + (br + i*bi) * p on one element.
//
//cbs:hotpath
func xpayLane[F Float](pr, pi *F, rr, ri, br, bi F) {
	vr, vi := *pr, *pi
	*pr = rr + (br*vr - bi*vi)
	*pi = ri + (br*vi + bi*vr)
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
