package soa

import "math"

// Row-resident kernels of the FD plane path: the loop over grid points runs
// inside the kernel, so one dispatch produces a whole output row of the
// stencil (StencilRow) or consumes a whole projector support (GatherDot,
// ScatterAxpy). The accumulators live in registers across every term of an
// element, in the per-element order of the complex128 stencil loop —
// diagonal, x d = 1..nf, y d = 1..nf, z d = 1..nf with +d before -d — and
// the asm arm is the exact transcription of the scalar sibling under the
// contract of simd.go, VMULPD/VADDPD only, so both arms give those bits.

// MaxHalfWidth is the largest stencil half-width the row kernel takes.
const MaxHalfWidth = 8

// maxRowElems bounds the elements of one stencil row the asm takes: its
// in-row byte offsets are int32.
const maxRowElems = math.MaxInt32 / 8

// Stencil is the immutable shape the row kernel walks: the grid extents,
// the half-width nf, and the periodic x and y neighbour tables flattened
// point-major, xnb[(ix*nf+d-1)*2] = (ix+d) mod nx followed by (ix-d) mod nx
// (ynb likewise per iy), so each point's 2*nf neighbours are consecutive.
// One Stencil serves any number of concurrent applies.
type Stencil struct {
	nx, ny, nz, nf int
	xnb, ynb       []int32
}

// NewStencil flattens and validates the neighbour tables: xp[d-1][ix] and
// xm[d-1][ix] are the in-row points at distance +d and -d of ix, yp/ym the
// in-plane rows of iy. The kernels index rows by these tables unchecked, so
// every entry is range-checked here, once.
func NewStencil(nx, ny, nz, nf int, xp, xm, yp, ym [][]int32) *Stencil {
	if nx < 1 || ny < 1 || nz < 1 || nf < 1 || nf > MaxHalfWidth {
		panic("soa: NewStencil bad shape")
	}
	return &Stencil{nx: nx, ny: ny, nz: nz, nf: nf,
		xnb: flattenNeighbours(nx, nf, xp, xm), ynb: flattenNeighbours(ny, nf, yp, ym)}
}

// flattenNeighbours pads the flat table with 2*MaxHalfWidth zero entries:
// the asm reads every point's indices as one 2*MaxHalfWidth-entry block.
func flattenNeighbours(n, nf int, plus, minus [][]int32) []int32 {
	if len(plus) != nf || len(minus) != nf {
		panic("soa: NewStencil neighbour table count mismatch")
	}
	flat := make([]int32, n*nf*2+2*MaxHalfWidth)
	for d := 0; d < nf; d++ {
		if len(plus[d]) != n || len(minus[d]) != n {
			panic("soa: NewStencil neighbour table length mismatch")
		}
		for i := 0; i < n; i++ {
			p, m := plus[d][i], minus[d][i]
			if p < 0 || int(p) >= n || m < 0 || int(m) >= n {
				panic("soa: NewStencil neighbour out of range")
			}
			flat[(i*nf+d)*2], flat[(i*nf+d)*2+1] = p, m
		}
	}
	return flat
}

// StencilCoef is one apply's coefficients: the diagonal of point i is
// Shift + Sign*(Diag + vloc[i]), and Cx/Cy/Cz[d-1] multiply the x/y/z tails
// at distance d (the sign already folded in).
type StencilCoef struct {
	Shift, Sign, Diag float64
	Cx, Cy, Cz        [MaxHalfWidth]float64
}

// StencilRow writes output row (iz, iy) of the stencil apply, both planes,
// every element once: per element the diagonal term, then the x tails
// c*(v[+d] + v[-d]) through the wrap table, the y tails likewise from the
// neighbour rows of the plane, then the in-cell z tails c*v[+d], c*v[-d] as
// separate terms — a neighbour plane outside [0, nz) and a zero
// coefficient are skipped. out must not alias v.
//
//cbs:hotpath
func StencilRow[F Float](s *Stencil, c *StencilCoef, vloc []F, v, out *Block[F], iz, iy int) {
	n := s.nx * s.ny * s.nz
	if v.n != n || out.n != n || v.nb != out.nb || len(vloc) != n ||
		uint(iz) >= uint(s.nz) || uint(iy) >= uint(s.ny) {
		panic("soa: StencilRow shape mismatch")
	}
	if len(v.Re) > 0 && &v.Re[0] == &out.Re[0] {
		panic("soa: StencilRow out aliases v")
	}
	// The asm keeps in-row x offsets as int32.
	if HasAVX2 && s.nx*v.nb <= maxRowElems {
		if vr, ok := any(v.Re).([]float64); ok {
			stencilRowAVX2(s, c, any(vloc).([]float64), vr, any(v.Im).([]float64),
				any(out.Re).([]float64), any(out.Im).([]float64), v.nb, iz, iy)
			return
		}
	}
	stencilRowScalar(s, c, vloc, v.Re, v.Im, out.Re, out.Im, v.nb, iz, iy)
}

//cbs:hotpath
func stencilRowScalar[F Float](s *Stencil, c *StencilCoef, vloc, vRe, vIm, oRe, oIm []F, nb, iz, iy int) {
	nx, nf := s.nx, s.nf
	plane := nx * s.ny
	row := iz*plane + iy*nx
	rowLen := nx * nb
	o := row * nb
	rRe, rIm := vRe[o:o+rowLen], vIm[o:o+rowLen]
	dRe := oRe[o : o+rowLen]
	dIm := oIm[o:][:len(dRe)]
	vloc = vloc[row : row+nx]
	shift, sign, diag := F(c.Shift), F(c.Sign), F(c.Diag)
	for ix, vl := range vloc {
		d0 := shift + sign*(diag+vl)
		or := dRe[ix*nb : ix*nb+nb]
		oi := dIm[ix*nb:][:len(or)]
		sr := rRe[ix*nb:][:len(or)]
		si := rIm[ix*nb:][:len(or)]
		for k := range or {
			or[k] = d0 * sr[k]
			oi[k] = d0 * si[k]
		}
		for d, nbr := 0, s.xnb[ix*nf*2:]; d < nf; d++ {
			p, m := int(nbr[2*d])*nb, int(nbr[2*d+1])*nb
			addPairRow(or, oi, rRe[p:], rRe[m:], rIm[p:], rIm[m:], F(c.Cx[d]))
		}
	}
	for d, nbr := 0, s.ynb[iy*nf*2:]; d < nf; d++ {
		p := (iz*plane + int(nbr[2*d])*nx) * nb
		m := (iz*plane + int(nbr[2*d+1])*nx) * nb
		addPairRow(dRe, dIm, vRe[p:], vRe[m:], vIm[p:], vIm[m:], F(c.Cy[d]))
	}
	for d := 1; d <= nf; d++ {
		cz := F(c.Cz[d-1])
		if cz == 0 {
			continue
		}
		if iz+d < s.nz {
			axpyRow(dRe, dIm, vRe[o+d*plane*nb:], vIm[o+d*plane*nb:], cz)
		}
		if iz-d >= 0 {
			axpyRow(dRe, dIm, vRe[o-d*plane*nb:], vIm[o-d*plane*nb:], cz)
		}
	}
}

// addPairRow performs d[i] += c*(p[i] + m[i]) on both planes over len(dRe)
// elements: one symmetric tail of a point (x) or of a row (y).
//
//cbs:hotpath
func addPairRow[F Float](dRe, dIm, pRe, mRe, pIm, mIm []F, c F) {
	dIm = dIm[:len(dRe)]
	pRe, mRe = pRe[:len(dRe)], mRe[:len(dRe)]
	pIm, mIm = pIm[:len(dRe)], mIm[:len(dRe)]
	for i := range dRe {
		dRe[i] += c * (pRe[i] + mRe[i])
		dIm[i] += c * (pIm[i] + mIm[i])
	}
}

// axpyRow performs dRe[i] += c*sRe[i]; dIm[i] += c*sIm[i] over one row.
//
//cbs:hotpath
func axpyRow[F Float](dRe, dIm, sRe, sIm []F, c F) {
	dIm = dIm[:len(dRe)]
	sRe = sRe[:len(dRe)]
	sIm = sIm[:len(dRe)]
	for i := range dRe {
		dRe[i] += c * sRe[i]
		dIm[i] += c * sIm[i]
	}
}

// GatherDot computes the projector dots of columns c0 .. c0+len(sumsRe)-1
// of v over one support: sums[k] = sum_i val[i] * v[idx[i], c0+k], each
// column summed from zero in sample order.
//
//cbs:hotpath
func GatherDot[F Float](sumsRe, sumsIm []F, v *Block[F], c0 int, idx []int32, val []F) {
	w := len(sumsRe)
	if len(sumsIm) != w || len(val) != len(idx) || c0 < 0 || c0+w > v.nb {
		panic("soa: GatherDot shape mismatch")
	}
	var bad int
	if vr, ok := any(v.Re).([]float64); ok && HasAVX2 {
		bad = gatherDotAVX2(any(sumsRe).([]float64), any(sumsIm).([]float64),
			vr[c0:], any(v.Im).([]float64)[c0:], v.n, v.nb, idx, any(val).([]float64))
	} else {
		bad = gatherDotScalar(sumsRe, sumsIm, v.Re[c0:], v.Im[c0:], v.n, v.nb, idx, val)
	}
	if bad >= 0 {
		panic("soa: GatherDot support index out of range")
	}
}

// gatherDotScalar returns the position of the first sample whose row index
// is outside [0, n), or -1; the sums are then unspecified.
//
//cbs:hotpath
func gatherDotScalar[F Float](sumsRe, sumsIm, vRe, vIm []F, n, nb int, idx []int32, val []F) int {
	sumsIm = sumsIm[:len(sumsRe)]
	val = val[:len(idx)]
	for k := range sumsRe {
		sumsRe[k] = 0
		sumsIm[k] = 0
	}
	for i, id := range idx {
		if uint(id) >= uint(n) {
			return i
		}
		c := val[i]
		vr := vRe[int(id)*nb:][:len(sumsRe)]
		vi := vIm[int(id)*nb:][:len(sumsRe)]
		for k := range sumsRe {
			sumsRe[k] += c * vr[k]
			sumsIm[k] += c * vi[k]
		}
	}
	return -1
}

// ScatterAxpy accumulates a scaled projector back through one support:
// out[idx[i], c0+k] += val[i] * sums[k] for every sample i in order (a row
// listed twice is updated twice).
//
//cbs:hotpath
func ScatterAxpy[F Float](out *Block[F], c0 int, idx []int32, val []F, sumsRe, sumsIm []F) {
	w := len(sumsRe)
	if len(sumsIm) != w || len(val) != len(idx) || c0 < 0 || c0+w > out.nb {
		panic("soa: ScatterAxpy shape mismatch")
	}
	var bad int
	if or, ok := any(out.Re).([]float64); ok && HasAVX2 {
		bad = scatterAxpyAVX2(or[c0:], any(out.Im).([]float64)[c0:], out.n, out.nb,
			idx, any(val).([]float64), any(sumsRe).([]float64), any(sumsIm).([]float64))
	} else {
		bad = scatterAxpyScalar(out.Re[c0:], out.Im[c0:], out.n, out.nb, idx, val, sumsRe, sumsIm)
	}
	if bad >= 0 {
		panic("soa: ScatterAxpy support index out of range")
	}
}

// scatterAxpyScalar returns the position of the first sample whose row
// index is outside [0, n), or -1; earlier samples are already applied.
//
//cbs:hotpath
func scatterAxpyScalar[F Float](oRe, oIm []F, n, nb int, idx []int32, val, sumsRe, sumsIm []F) int {
	sumsIm = sumsIm[:len(sumsRe)]
	val = val[:len(idx)]
	for i, id := range idx {
		if uint(id) >= uint(n) {
			return i
		}
		c := val[i]
		or := oRe[int(id)*nb:][:len(sumsRe)]
		oi := oIm[int(id)*nb:][:len(sumsRe)]
		for k := range sumsRe {
			or[k] += c * sumsRe[k]
			oi[k] += c * sumsIm[k]
		}
	}
	return -1
}
