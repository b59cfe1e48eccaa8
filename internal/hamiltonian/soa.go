package hamiltonian

// Split-complex (SoA) application of the Hamiltonian blocks.
//
// These kernels are the planar counterparts of applyblock.go: the block is
// held as two float planes (soa.Block) indexed exactly like the row-major
// []complex128 block, and every coefficient of H0/H+/H- is real, so each
// complex stencil update decomposes into the same real update applied to
// both planes. That buys two structural wins over the AoS path:
//
//  1. the three AoS sweeps (diag+x, y-tails, z-tails) fuse into ONE sweep
//     per output row — out is written once per element instead of
//     read-modified-written once per direction — with the per-element
//     accumulation order (diag, x d=1..nf pair-grouped, y d=1..nf
//     pair-grouped, z d=1..nf with +d then -d as separate scaled terms)
//     kept identical to ApplyH0Block, so float64 results are bit-identical;
//  2. the inner loops are contiguous float multiply-adds over plane
//     segments (x interior tails are plain shifted slices of the row, no
//     neighbour-table gathers), which the compiler turns into straight
//     4-wide unrolled scalar code at roughly half the per-element overhead
//     of the complex128 loops.
//
// The kernels are generic over the plane element type F (soa.Float, i.e.
// float64): the coefficient tables are converted once at construction and
// arithmetic then stays in F throughout — see SoATables.

import (
	"sync"

	"cbs/internal/soa"
)

// SoATables holds the operator's coefficient tables converted once to the
// plane element type F, alongside the shared (type-independent) neighbour
// index tables of the Operator. Building the tables is a one-time setup
// cost; the apply kernels never convert in the hot loop.
type SoATables[F soa.Float] struct {
	op *Operator

	vloc       []F
	kx, ky, kz []F
	diag       F

	projH   []F      // per projector: channel strength h
	projVal [][3][]F // per projector, per cell offset: dV-weighted samples
}

// NewSoATables converts the operator's coefficient tables to F.
func NewSoATables[F soa.Float](op *Operator) *SoATables[F] {
	t := &SoATables[F]{op: op}
	t.vloc = make([]F, len(op.VLoc))
	for i, v := range op.VLoc {
		t.vloc[i] = F(v)
	}
	conv := func(src []float64) []F {
		out := make([]F, len(src))
		for i, v := range src {
			out[i] = F(v)
		}
		return out
	}
	t.kx, t.ky, t.kz = conv(op.kx), conv(op.ky), conv(op.kz)
	t.diag = F(op.diag)
	t.projH = make([]F, len(op.Projs))
	t.projVal = make([][3][]F, len(op.Projs))
	for pi := range op.Projs {
		p := &op.Projs[pi]
		t.projH[pi] = F(p.H)
		for s := 0; s < 3; s++ {
			t.projVal[pi][s] = conv(p.Supp[s].Val)
		}
	}
	return t
}

// Op returns the backing operator.
func (t *SoATables[F]) Op() *Operator { return t.op }

// SoA64 returns the float64 coefficient tables, built once on first use.
func (op *Operator) SoA64() *SoATables[float64] {
	op.soa64Once.Do(func() { op.soa64 = NewSoATables[float64](op) })
	return op.soa64
}

// soaCache carries the lazily built tables; it is embedded in Operator so
// every solve layer shares one conversion.
type soaCache struct {
	soa64     *SoATables[float64]
	soa64Once sync.Once
}

// checkBlockShape is the shared shape guard of the SoA entry points.
//
//cbs:hotpath
func (t *SoATables[F]) checkBlockShape(v, out *soa.Block[F]) {
	if v.N() != t.op.N() || out.N() != t.op.N() || v.NB() != out.NB() || v.NB() < 1 {
		panic("hamiltonian: SoA block shape mismatch")
	}
}

// ApplyH0Block computes out = H0*V on split planes, bit-identical (at
// F = float64) to the AoS ApplyH0Block.
//
//cbs:hotpath
func (t *SoATables[F]) ApplyH0Block(v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	t.applyH0BlockImpl(0, 1, v, out)
	t.accumNonlocalBlock(1, 0, v, out, 0)
}

// ApplyShiftedH0Block computes out = (shift*I - H0)*V on split planes,
// bit-identical (at F = float64) to the AoS ApplyShiftedH0Block.
//
//cbs:hotpath
func (t *SoATables[F]) ApplyShiftedH0Block(shift F, v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	t.applyH0BlockImpl(shift, -1, v, out)
	t.accumNonlocalBlock(-1, 0, v, out, 0)
}

// applyH0BlockImpl computes the kinetic + local part of
// out = shift*V + sign*H0loc*V in a single fused sweep: each output row
// (fixed iz, iy) is written once with its diagonal term and then
// accumulates its x, y and z stencil tails while still cache-resident.
// The per-element accumulation order matches applyH0BlockImpl exactly
// (see the package comment at the top of this file); only the traversal
// order over elements differs, which is immaterial because elements are
// independent.
//
//cbs:hotpath
func (t *SoATables[F]) applyH0BlockImpl(shift, sign F, v, out *soa.Block[F]) {
	op := t.op
	g := op.G
	nf := op.St.Nf
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	nb := v.NB()
	rowLen := nx * nb
	plane := nx * ny
	fused4 := nf == 4 && nx >= 2*nf
	for iz := 0; iz < nz; iz++ {
		planeBase := iz * plane
		for iy := 0; iy < ny; iy++ {
			base := planeBase + iy*nx
			rowRe := v.Re[base*nb : base*nb+rowLen]
			rowIm := v.Im[base*nb : base*nb+rowLen]
			oRe := out.Re[base*nb : base*nb+rowLen]
			oIm := out.Im[base*nb : base*nb+rowLen]
			vloc := t.vloc[base : base+nx]

			// Diagonal: writes every element of the output row once.
			for ix := 0; ix < nx; ix++ {
				d0 := shift + sign*(t.diag+vloc[ix])
				o := ix * nb
				scalePair(oRe[o:o+nb], oIm[o:o+nb], rowRe[o:o+nb], rowIm[o:o+nb], d0)
			}

			// x-tails. The interior segment [nf, nx-nf) has no periodic
			// wrap, so all four offset pairs are shifted slices of the row
			// and fuse into one pass; edge points go through the wrap
			// tables offset by offset (same per-element order).
			if fused4 {
				in0, in1 := nf*nb, rowLen-nf*nb
				c1, c2 := sign*t.kx[1], sign*t.kx[2]
				c3, c4 := sign*t.kx[3], sign*t.kx[4]
				fusePair4(oRe[in0:in1],
					rowRe[in0+nb:], rowRe[in0-nb:],
					rowRe[in0+2*nb:], rowRe[in0-2*nb:],
					rowRe[in0+3*nb:], rowRe[in0-3*nb:],
					rowRe[in0+4*nb:], rowRe[in0-4*nb:],
					c1, c2, c3, c4)
				fusePair4(oIm[in0:in1],
					rowIm[in0+nb:], rowIm[in0-nb:],
					rowIm[in0+2*nb:], rowIm[in0-2*nb:],
					rowIm[in0+3*nb:], rowIm[in0-3*nb:],
					rowIm[in0+4*nb:], rowIm[in0-4*nb:],
					c1, c2, c3, c4)
				for ix := 0; ix < nf; ix++ {
					t.accumXPoint(sign, ix, nf, nb, rowRe, rowIm, oRe, oIm)
				}
				for ix := nx - nf; ix < nx; ix++ {
					t.accumXPoint(sign, ix, nf, nb, rowRe, rowIm, oRe, oIm)
				}
			} else {
				for ix := 0; ix < nx; ix++ {
					t.accumXPoint(sign, ix, nf, nb, rowRe, rowIm, oRe, oIm)
				}
			}

			// y-tails: periodic neighbour rows of the same plane.
			if nf == 4 {
				p1 := (planeBase + int(op.yp[0][iy])*nx) * nb
				m1 := (planeBase + int(op.ym[0][iy])*nx) * nb
				p2 := (planeBase + int(op.yp[1][iy])*nx) * nb
				m2 := (planeBase + int(op.ym[1][iy])*nx) * nb
				p3 := (planeBase + int(op.yp[2][iy])*nx) * nb
				m3 := (planeBase + int(op.ym[2][iy])*nx) * nb
				p4 := (planeBase + int(op.yp[3][iy])*nx) * nb
				m4 := (planeBase + int(op.ym[3][iy])*nx) * nb
				c1, c2 := sign*t.ky[1], sign*t.ky[2]
				c3, c4 := sign*t.ky[3], sign*t.ky[4]
				fusePair4(oRe,
					v.Re[p1:], v.Re[m1:], v.Re[p2:], v.Re[m2:],
					v.Re[p3:], v.Re[m3:], v.Re[p4:], v.Re[m4:],
					c1, c2, c3, c4)
				fusePair4(oIm,
					v.Im[p1:], v.Im[m1:], v.Im[p2:], v.Im[m2:],
					v.Im[p3:], v.Im[m3:], v.Im[p4:], v.Im[m4:],
					c1, c2, c3, c4)
			} else {
				for d := 1; d <= nf; d++ {
					c := sign * t.ky[d]
					bp := (planeBase + int(op.yp[d-1][iy])*nx) * nb
					bm := (planeBase + int(op.ym[d-1][iy])*nx) * nb
					addPairScaled(oRe, v.Re[bp:], v.Re[bm:], c)
					addPairScaled(oIm, v.Im[bp:], v.Im[bm:], c)
				}
			}

			// z-tails, in-cell part only. Matching the AoS kernel, the +d
			// and -d planes are separate scaled adds (NOT pair-grouped):
			// per element the order is d=1 (+ then -), d=2 (+ then -), ...
			if nf == 4 && iz >= 4 && iz+4 < nz {
				zp1, zm1 := (base+plane)*nb, (base-plane)*nb
				zp2, zm2 := (base+2*plane)*nb, (base-2*plane)*nb
				zp3, zm3 := (base+3*plane)*nb, (base-3*plane)*nb
				zp4, zm4 := (base+4*plane)*nb, (base-4*plane)*nb
				c1, c2 := sign*t.kz[1], sign*t.kz[2]
				c3, c4 := sign*t.kz[3], sign*t.kz[4]
				fuseSingle8(oRe,
					v.Re[zp1:], v.Re[zm1:], v.Re[zp2:], v.Re[zm2:],
					v.Re[zp3:], v.Re[zm3:], v.Re[zp4:], v.Re[zm4:],
					c1, c2, c3, c4)
				fuseSingle8(oIm,
					v.Im[zp1:], v.Im[zm1:], v.Im[zp2:], v.Im[zm2:],
					v.Im[zp3:], v.Im[zm3:], v.Im[zp4:], v.Im[zm4:],
					c1, c2, c3, c4)
			} else {
				for d := 1; d <= nf; d++ {
					c := sign * t.kz[d]
					if izp := iz + d; izp < nz {
						bp := (base + d*plane) * nb
						addScaledPlane(oRe, v.Re[bp:], c)
						addScaledPlane(oIm, v.Im[bp:], c)
					}
					if izm := iz - d; izm >= 0 {
						bm := (base - d*plane) * nb
						addScaledPlane(oRe, v.Re[bm:], c)
						addScaledPlane(oIm, v.Im[bm:], c)
					}
				}
			}
		}
	}
}

// accumXPoint accumulates the x stencil tails of one grid point through the
// periodic wrap tables. At nf == 4 all four wrap-neighbour offsets feed the
// same fused pair kernel as the interior; per element the d = 1..4 order is
// the AoS order, and the re/im planes split into separate passes (elements
// are independent, so the split is bit-neutral). Other nf fall back to the
// offset-by-offset loop.
//
//cbs:hotpath
func (t *SoATables[F]) accumXPoint(sign F, ix, nf, nb int, rowRe, rowIm, oRe, oIm []F) {
	op := t.op
	o := ix * nb
	or := oRe[o : o+nb]
	oi := oIm[o:][:len(or)]
	if nf == 4 {
		p1 := int(op.xp[0][ix]) * nb
		m1 := int(op.xm[0][ix]) * nb
		p2 := int(op.xp[1][ix]) * nb
		m2 := int(op.xm[1][ix]) * nb
		p3 := int(op.xp[2][ix]) * nb
		m3 := int(op.xm[2][ix]) * nb
		p4 := int(op.xp[3][ix]) * nb
		m4 := int(op.xm[3][ix]) * nb
		c1, c2 := sign*t.kx[1], sign*t.kx[2]
		c3, c4 := sign*t.kx[3], sign*t.kx[4]
		fusePair4(or,
			rowRe[p1:], rowRe[m1:], rowRe[p2:], rowRe[m2:],
			rowRe[p3:], rowRe[m3:], rowRe[p4:], rowRe[m4:],
			c1, c2, c3, c4)
		fusePair4(oi,
			rowIm[p1:], rowIm[m1:], rowIm[p2:], rowIm[m2:],
			rowIm[p3:], rowIm[m3:], rowIm[p4:], rowIm[m4:],
			c1, c2, c3, c4)
		return
	}
	for d := 1; d <= nf; d++ {
		c := sign * t.kx[d]
		pOff := int(op.xp[d-1][ix]) * nb
		mOff := int(op.xm[d-1][ix]) * nb
		pr := rowRe[pOff:][:len(or)]
		mr := rowRe[mOff:][:len(or)]
		pi := rowIm[pOff:][:len(or)]
		mi := rowIm[mOff:][:len(or)]
		for k := range or {
			or[k] += c * (pr[k] + mr[k])
			oi[k] += c * (pi[k] + mi[k])
		}
	}
}

// AccumHpBlock accumulates out += coef * H+ * V on split planes: the top nf
// z-planes couple to the next cell, plus the boundary-crossing projectors.
// coef is split (coefRe, coefIm); at F = float64 the result is
// bit-identical to the AoS AccumHpBlock.
//
//cbs:hotpath
func (t *SoATables[F]) AccumHpBlock(coefRe, coefIm F, v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	op := t.op
	g := op.G
	nf := op.St.Nf
	plane := g.Nx * g.Ny
	nz := g.Nz
	nb := v.NB()
	for d := 1; d <= nf; d++ {
		cr := t.kz[d] * coefRe
		ci := t.kz[d] * coefIm
		for iz := nz - d; iz < nz; iz++ {
			base := iz * plane * nb
			bp := (iz + d - nz) * plane * nb
			addScaledCplx(out.Re[base:base+plane*nb], out.Im[base:base+plane*nb],
				v.Re[bp:bp+plane*nb], v.Im[bp:bp+plane*nb], cr, ci)
		}
	}
	t.accumNonlocalBlock(coefRe, coefIm, v, out, 1)
}

// AccumHmBlock accumulates out += coef * H- * V on split planes.
//
//cbs:hotpath
func (t *SoATables[F]) AccumHmBlock(coefRe, coefIm F, v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	op := t.op
	g := op.G
	nf := op.St.Nf
	plane := g.Nx * g.Ny
	nz := g.Nz
	nb := v.NB()
	for d := 1; d <= nf; d++ {
		cr := t.kz[d] * coefRe
		ci := t.kz[d] * coefIm
		for iz := 0; iz < d; iz++ {
			base := iz * plane * nb
			bm := (iz - d + nz) * plane * nb
			addScaledCplx(out.Re[base:base+plane*nb], out.Im[base:base+plane*nb],
				v.Re[bm:bm+plane*nb], v.Im[bm:bm+plane*nb], cr, ci)
		}
	}
	t.accumNonlocalBlock(coefRe, coefIm, v, out, -1)
}

// accumNonlocalBlock accumulates the separable projector term with cell
// offset l on split planes, mirroring the AoS accumNonlocalBlock: columns
// in stack-resident chunks, sums scaled by the complex channel coefficient
// h*coef, then scattered back through the row support.
//
//cbs:hotpath
func (t *SoATables[F]) accumNonlocalBlock(coefRe, coefIm F, v, out *soa.Block[F], l int) {
	var stackRe, stackIm [blockStackCols]F
	op := t.op
	nb := v.NB()
	for c0 := 0; c0 < nb; c0 += blockStackCols {
		cw := nb - c0
		if cw > blockStackCols {
			cw = blockStackCols
		}
		sumsRe := stackRe[:cw]
		sumsIm := stackIm[:cw]
		vRe, vIm := v.Re[c0:], v.Im[c0:]
		oRe, oIm := out.Re[c0:], out.Im[c0:]
		for pi := range op.Projs {
			p := &op.Projs[pi]
			for j := -1; j <= 1; j++ {
				jc := j + l
				if jc < -1 || jc > 1 {
					continue
				}
				row := &p.Supp[j+1]
				col := &p.Supp[jc+1]
				if len(row.Idx) == 0 || len(col.Idx) == 0 {
					continue
				}
				dotSupportSoA(sumsRe, sumsIm, col.Idx, t.projVal[pi][jc+1], vRe, vIm, nb)
				chr := t.projH[pi] * coefRe
				chi := t.projH[pi] * coefIm
				for k := range sumsRe {
					sr, si := sumsRe[k], sumsIm[k]
					sumsRe[k] = sr*chr - si*chi
					sumsIm[k] = sr*chi + si*chr
				}
				accumProjectorSoA(oRe, oIm, row.Idx, t.projVal[pi][j+1], sumsRe, sumsIm, nb)
			}
		}
	}
}

// dotSupportSoA computes sums[k] = <p, V[:,k]> over the support samples on
// split planes.
//
//cbs:hotpath
func dotSupportSoA[F soa.Float](sumsRe, sumsIm []F, idx []int32, val []F, vRe, vIm []F, nb int) {
	for k := range sumsRe {
		sumsRe[k] = 0
		sumsIm[k] = 0
	}
	if soa.HasAVX2 {
		if sr, ok := any(sumsRe).([]float64); ok {
			si := any(sumsIm).([]float64)
			vr := any(vRe).([]float64)
			vi := any(vIm).([]float64)
			c := any(val).([]float64)
			for i, id := range idx {
				o := int(id) * nb
				soa.AxpyPairF64(sr, si, vr[o:o+len(sr)], vi[o:o+len(sr)], c[i])
			}
			return
		}
	}
	for i, id := range idx {
		c := val[i]
		vr := vRe[int(id)*nb : int(id)*nb+len(sumsRe)]
		vi := vIm[int(id)*nb:][:len(vr)]
		for k := range vr {
			sumsRe[k] += c * vr[k]
			sumsIm[k] += c * vi[k]
		}
	}
}

// accumProjectorSoA accumulates out[idx,:] += coefs[:] * val on split planes.
//
//cbs:hotpath
func accumProjectorSoA[F soa.Float](oRe, oIm []F, idx []int32, val []F, sumsRe, sumsIm []F, nb int) {
	if soa.HasAVX2 {
		if sr, ok := any(sumsRe).([]float64); ok {
			si := any(sumsIm).([]float64)
			or := any(oRe).([]float64)
			oi := any(oIm).([]float64)
			c := any(val).([]float64)
			for i, id := range idx {
				o := int(id) * nb
				soa.AxpyPairF64(or[o:o+len(sr)], oi[o:o+len(sr)], sr, si, c[i])
			}
			return
		}
	}
	for i, id := range idx {
		c := val[i]
		or := oRe[int(id)*nb : int(id)*nb+len(sumsRe)]
		oi := oIm[int(id)*nb:][:len(or)]
		for k := range or {
			or[k] += c * sumsRe[k]
			oi[k] += c * sumsIm[k]
		}
	}
}

// ---- fused plane primitives --------------------------------------------
//
// Each primitive keeps a strict per-element accumulation order — one
// sequential chain through a register — so fusing several offset sweeps
// into one pass is bit-identical to running the sweeps separately (Go
// never reassociates floating-point expressions). At F = float64 on an
// AVX2 machine each primitive dispatches to the matching soa SIMD kernel
// (assert-guarded `any(x).([]float64)` compiles to a type check, no
// boxing); the kernels use no FMA and round per lane exactly like the
// scalar bodies, so the dispatch is bit-neutral. The generic bodies remain
// the non-AVX2 path, 4-wide unrolled to trim loop and bounds-check
// overhead.

// scalePair performs dstRe[i] = c*srcRe[i]; dstIm[i] = c*srcIm[i] — the
// diagonal term's overwrite of both planes.
//
//cbs:hotpath
func scalePair[F soa.Float](dstRe, dstIm, srcRe, srcIm []F, c F) {
	if soa.HasAVX2 {
		if dr, ok := any(dstRe).([]float64); ok {
			n := len(dr)
			soa.ScalePairF64(dr, any(dstIm).([]float64)[:n],
				any(srcRe).([]float64)[:n], any(srcIm).([]float64)[:n], float64(c))
			return
		}
	}
	n := len(dstRe)
	dstIm = dstIm[:n]
	srcRe = srcRe[:n]
	srcIm = srcIm[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := c * srcRe[i]
		r1 := c * srcRe[i+1]
		r2 := c * srcRe[i+2]
		r3 := c * srcRe[i+3]
		m0 := c * srcIm[i]
		m1 := c * srcIm[i+1]
		m2 := c * srcIm[i+2]
		m3 := c * srcIm[i+3]
		dstRe[i] = r0
		dstRe[i+1] = r1
		dstRe[i+2] = r2
		dstRe[i+3] = r3
		dstIm[i] = m0
		dstIm[i+1] = m1
		dstIm[i+2] = m2
		dstIm[i+3] = m3
	}
	for ; i < n; i++ {
		dstRe[i] = c * srcRe[i]
		dstIm[i] = c * srcIm[i]
	}
}

// addPairScaled performs dst[i] += c*(p[i]+m[i]).
//
//cbs:hotpath
func addPairScaled[F soa.Float](dst, p, m []F, c F) {
	if soa.HasAVX2 {
		if d, ok := any(dst).([]float64); ok {
			n := len(d)
			soa.AddPairScaledF64(d, any(p).([]float64)[:n], any(m).([]float64)[:n], float64(c))
			return
		}
	}
	n := len(dst)
	p = p[:n]
	m = m[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := dst[i] + c*(p[i]+m[i])
		v1 := dst[i+1] + c*(p[i+1]+m[i+1])
		v2 := dst[i+2] + c*(p[i+2]+m[i+2])
		v3 := dst[i+3] + c*(p[i+3]+m[i+3])
		dst[i] = v0
		dst[i+1] = v1
		dst[i+2] = v2
		dst[i+3] = v3
	}
	for ; i < n; i++ {
		dst[i] += c * (p[i] + m[i])
	}
}

// addScaledPlane performs dst[i] += c*src[i].
//
//cbs:hotpath
func addScaledPlane[F soa.Float](dst, src []F, c F) {
	if c == 0 {
		return
	}
	if soa.HasAVX2 {
		if d, ok := any(dst).([]float64); ok {
			soa.AxpyF64(d, any(src).([]float64)[:len(d)], float64(c))
			return
		}
	}
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := dst[i] + c*src[i]
		v1 := dst[i+1] + c*src[i+1]
		v2 := dst[i+2] + c*src[i+2]
		v3 := dst[i+3] + c*src[i+3]
		dst[i] = v0
		dst[i+1] = v1
		dst[i+2] = v2
		dst[i+3] = v3
	}
	for ; i < n; i++ {
		dst[i] += c * src[i]
	}
}

// addScaledCplx performs (dstRe,dstIm)[i] += (cr+ci*i)*(srcRe,srcIm)[i],
// the split form of addScaledBlock's complex axpy.
//
//cbs:hotpath
func addScaledCplx[F soa.Float](dstRe, dstIm, srcRe, srcIm []F, cr, ci F) {
	if cr == 0 && ci == 0 {
		return
	}
	if soa.HasAVX2 {
		if dr, ok := any(dstRe).([]float64); ok {
			n := len(dr)
			soa.AxpyCplxF64(dr, any(dstIm).([]float64)[:n],
				any(srcRe).([]float64)[:n], any(srcIm).([]float64)[:n],
				float64(cr), float64(ci))
			return
		}
	}
	n := len(dstRe)
	dstIm = dstIm[:n]
	srcRe = srcRe[:n]
	srcIm = srcIm[:n]
	for i := 0; i < n; i++ {
		sr, si := srcRe[i], srcIm[i]
		dstRe[i] += cr*sr - ci*si
		dstIm[i] += cr*si + ci*sr
	}
}

// fusePair4 fuses four pair-grouped offset sweeps into one pass:
// per element, dst += c1*(p1+m1), then += c2*(p2+m2), then c3, then c4 —
// the same sequential order as four addPairScaled calls.
//
//cbs:hotpath
func fusePair4[F soa.Float](dst, p1, m1, p2, m2, p3, m3, p4, m4 []F, c1, c2, c3, c4 F) {
	if soa.HasAVX2 {
		if d, ok := any(dst).([]float64); ok {
			n := len(d)
			soa.FusePair4F64(d,
				any(p1).([]float64)[:n], any(m1).([]float64)[:n],
				any(p2).([]float64)[:n], any(m2).([]float64)[:n],
				any(p3).([]float64)[:n], any(m3).([]float64)[:n],
				any(p4).([]float64)[:n], any(m4).([]float64)[:n],
				float64(c1), float64(c2), float64(c3), float64(c4))
			return
		}
	}
	n := len(dst)
	p1 = p1[:n]
	m1 = m1[:n]
	p2 = p2[:n]
	m2 = m2[:n]
	p3 = p3[:n]
	m3 = m3[:n]
	p4 = p4[:n]
	m4 = m4[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := dst[i] + c1*(p1[i]+m1[i])
		v1 := dst[i+1] + c1*(p1[i+1]+m1[i+1])
		v2 := dst[i+2] + c1*(p1[i+2]+m1[i+2])
		v3 := dst[i+3] + c1*(p1[i+3]+m1[i+3])
		v0 += c2 * (p2[i] + m2[i])
		v1 += c2 * (p2[i+1] + m2[i+1])
		v2 += c2 * (p2[i+2] + m2[i+2])
		v3 += c2 * (p2[i+3] + m2[i+3])
		v0 += c3 * (p3[i] + m3[i])
		v1 += c3 * (p3[i+1] + m3[i+1])
		v2 += c3 * (p3[i+2] + m3[i+2])
		v3 += c3 * (p3[i+3] + m3[i+3])
		v0 += c4 * (p4[i] + m4[i])
		v1 += c4 * (p4[i+1] + m4[i+1])
		v2 += c4 * (p4[i+2] + m4[i+2])
		v3 += c4 * (p4[i+3] + m4[i+3])
		dst[i] = v0
		dst[i+1] = v1
		dst[i+2] = v2
		dst[i+3] = v3
	}
	for ; i < n; i++ {
		v := dst[i] + c1*(p1[i]+m1[i])
		v += c2 * (p2[i] + m2[i])
		v += c3 * (p3[i] + m3[i])
		v += c4 * (p4[i] + m4[i])
		dst[i] = v
	}
}

// fuseSingle8 fuses eight single-plane scaled adds into one pass with the
// sequential per-element order dst += c1*s1, += c1*s2, += c2*s3, ... —
// the z-tail pattern, where +d and -d share a coefficient but must stay
// separate terms to match the AoS kernel bit-for-bit.
//
//cbs:hotpath
func fuseSingle8[F soa.Float](dst, s1, s2, s3, s4, s5, s6, s7, s8 []F, c1, c2, c3, c4 F) {
	if soa.HasAVX2 {
		if d, ok := any(dst).([]float64); ok {
			n := len(d)
			soa.FuseSingle8F64(d,
				any(s1).([]float64)[:n], any(s2).([]float64)[:n],
				any(s3).([]float64)[:n], any(s4).([]float64)[:n],
				any(s5).([]float64)[:n], any(s6).([]float64)[:n],
				any(s7).([]float64)[:n], any(s8).([]float64)[:n],
				float64(c1), float64(c2), float64(c3), float64(c4))
			return
		}
	}
	n := len(dst)
	s1 = s1[:n]
	s2 = s2[:n]
	s3 = s3[:n]
	s4 = s4[:n]
	s5 = s5[:n]
	s6 = s6[:n]
	s7 = s7[:n]
	s8 = s8[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := dst[i] + c1*s1[i]
		v1 := dst[i+1] + c1*s1[i+1]
		v2 := dst[i+2] + c1*s1[i+2]
		v3 := dst[i+3] + c1*s1[i+3]
		v0 += c1 * s2[i]
		v1 += c1 * s2[i+1]
		v2 += c1 * s2[i+2]
		v3 += c1 * s2[i+3]
		v0 += c2 * s3[i]
		v1 += c2 * s3[i+1]
		v2 += c2 * s3[i+2]
		v3 += c2 * s3[i+3]
		v0 += c2 * s4[i]
		v1 += c2 * s4[i+1]
		v2 += c2 * s4[i+2]
		v3 += c2 * s4[i+3]
		v0 += c3 * s5[i]
		v1 += c3 * s5[i+1]
		v2 += c3 * s5[i+2]
		v3 += c3 * s5[i+3]
		v0 += c3 * s6[i]
		v1 += c3 * s6[i+1]
		v2 += c3 * s6[i+2]
		v3 += c3 * s6[i+3]
		v0 += c4 * s7[i]
		v1 += c4 * s7[i+1]
		v2 += c4 * s7[i+2]
		v3 += c4 * s7[i+3]
		v0 += c4 * s8[i]
		v1 += c4 * s8[i+1]
		v2 += c4 * s8[i+2]
		v3 += c4 * s8[i+3]
		dst[i] = v0
		dst[i+1] = v1
		dst[i+2] = v2
		dst[i+3] = v3
	}
	for ; i < n; i++ {
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
