package hamiltonian

// Split-complex (SoA) application of the Hamiltonian blocks.
//
// A block of nb vectors is held as two float planes (soa.Block), row-major
// by grid point: the nb column values of grid point i sit at
// Re[i*nb:(i+1)*nb] and Im[i*nb:(i+1)*nb]. One pass of the stencil then
// reads each neighbour table entry, local-potential value and projector
// sample once for all nb columns, and every coefficient of H0/H+/H- is
// real, so each complex stencil update is the same real update on both
// planes. The loops over grid points live inside three row-resident
// kernels of internal/soa, and this file only walks rows and projectors:
//
//   - soa.StencilRow writes one output row (fixed iz, iy) per call: each
//     element once, its diagonal, x, y and in-cell z terms accumulated in a
//     register, so out is never read-modified-written;
//   - soa.GatherDot and soa.ScatterAxpy each walk one projector support
//     per call with the column sums in registers;
//   - soa.AxpyRows adds the coupled z planes of H+ and H-.
//
// The per-element accumulation order (diag, x d=1..nf pair-grouped, y
// d=1..nf pair-grouped, z d=1..nf with +d then -d as separate terms; a
// support's samples in list order) does not depend on nb or on the arm of
// the kernels' dispatch, so a column's bits are the same in every block
// width, and the unshifted H0 block apply is bit-identical to the
// complex128 stencil loop column by column (the loop is kept as the test
// oracle in oracle_test.go).
//
// The entry points are generic over the plane element type F (soa.Float,
// i.e. float64): the coefficient tables are converted once at construction
// and arithmetic then stays in F throughout — see SoATables.

import (
	"sync"

	"cbs/internal/soa"
)

// SoATables holds the operator's coefficient tables converted once to the
// plane element type F, and the grid shape with its neighbour tables in the
// form the row kernel walks. Building the tables is a one-time setup cost;
// they are immutable afterwards and shared by concurrent workers, so the
// apply kernels keep every scratch value on their own stack. At
// F = float64 the tables share the operator's slices instead of copying
// them, so a local potential updated in place between applies (the SCF
// loop's mixing of op.VLoc) reaches the next apply.
type SoATables[F soa.Float] struct {
	op      *Operator
	stencil *soa.Stencil

	vloc       []F
	kx, ky, kz []F
	diag       F

	projH   []F      // per projector: channel strength h
	projVal [][3][]F // per projector, per cell offset: dV-weighted samples
}

// NewSoATables converts the operator's coefficient tables to F, or shares
// them where F is float64.
func NewSoATables[F soa.Float](op *Operator) *SoATables[F] {
	g := op.G
	t := &SoATables[F]{op: op,
		stencil: soa.NewStencil(g.Nx, g.Ny, g.Nz, op.St.Nf, op.xp, op.xm, op.yp, op.ym)}
	conv := func(src []float64) []F {
		if same, ok := any(src).([]F); ok {
			return same
		}
		out := make([]F, len(src))
		for i, v := range src {
			out[i] = F(v)
		}
		return out
	}
	t.vloc = conv(op.VLoc)
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

// The operator.Planes methods of the FD-grid backend dispatch to the
// float64 tables. They are not //cbs:hotpath themselves: the first call
// builds the tables under a sync.Once, and the body rules apply at the
// SoATables kernels they forward to.

// ApplyShiftedH0Planes computes out = (shift*I - H0)*V on split planes.
func (op *Operator) ApplyShiftedH0Planes(shift float64, v, out *soa.Block[float64]) {
	op.SoA64().ApplyShiftedH0Planes(shift, v, out)
}

// AccumHpPlanes accumulates out += coef * H+ * V on split planes.
func (op *Operator) AccumHpPlanes(coefRe, coefIm float64, v, out *soa.Block[float64]) {
	op.SoA64().AccumHpPlanes(coefRe, coefIm, v, out)
}

// AccumHmPlanes accumulates out += coef * H- * V on split planes.
func (op *Operator) AccumHmPlanes(coefRe, coefIm float64, v, out *soa.Block[float64]) {
	op.SoA64().AccumHmPlanes(coefRe, coefIm, v, out)
}

// blockStackCols is the width of the stack-resident per-projector reduction
// buffers; wider blocks are processed in column chunks of this size, so the
// nonlocal accumulation never allocates regardless of nb.
const blockStackCols = 64

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
// F = float64) to the complex128 stencil loop on each column.
//
//cbs:hotpath
func (t *SoATables[F]) ApplyH0Block(v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	t.applyH0BlockImpl(0, 1, v, out)
	t.accumNonlocalBlock(1, 0, v, out, 0)
}

// ApplyShiftedH0Planes computes out = (shift*I - H0)*V on split planes,
// the H0 part of P(z) = E - H0 - zH+ - z^-1 H-: folding the shift-and-
// negate into the stencil pass saves the separate "out = E*v - out" sweep.
//
//cbs:hotpath
func (t *SoATables[F]) ApplyShiftedH0Planes(shift F, v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	t.applyH0BlockImpl(shift, -1, v, out)
	t.accumNonlocalBlock(-1, 0, v, out, 0)
}

// applyH0BlockImpl computes the kinetic + local part of
// out = shift*V + sign*H0loc*V, one row kernel call per output row. The
// sign is folded into the tail coefficients here (sign*k[d], then the
// multiply by the neighbour sum).
//
//cbs:hotpath
func (t *SoATables[F]) applyH0BlockImpl(shift, sign F, v, out *soa.Block[F]) {
	c := soa.StencilCoef{Shift: float64(shift), Sign: float64(sign), Diag: float64(t.diag)}
	for d := 1; d <= t.op.St.Nf; d++ {
		c.Cx[d-1] = float64(sign * t.kx[d])
		c.Cy[d-1] = float64(sign * t.ky[d])
		c.Cz[d-1] = float64(sign * t.kz[d])
	}
	g := t.op.G
	for iz := 0; iz < g.Nz; iz++ {
		for iy := 0; iy < g.Ny; iy++ {
			soa.StencilRow(t.stencil, &c, t.vloc, v, out, iz, iy)
		}
	}
}

// AccumHpPlanes accumulates out += coef * H+ * V on split planes: the top nf
// z-planes couple to the next cell, plus the boundary-crossing projectors.
// coef is split (coefRe, coefIm). Because H+ only couples boundary planes,
// folding the coefficient in saves a full-length scratch block and its
// axpy pass.
//
//cbs:hotpath
func (t *SoATables[F]) AccumHpPlanes(coefRe, coefIm F, v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	g := t.op.G
	plane := g.Nx * g.Ny
	for d := 1; d <= t.op.St.Nf; d++ {
		// The top d planes couple to the first d planes of the next cell.
		if cr, ci := t.kz[d]*coefRe, t.kz[d]*coefIm; cr != 0 || ci != 0 {
			soa.AxpyRows(out, v, (g.Nz-d)*plane, 0, d*plane, cr, ci)
		}
	}
	t.accumNonlocalBlock(coefRe, coefIm, v, out, 1)
}

// AccumHmPlanes accumulates out += coef * H- * V on split planes.
//
//cbs:hotpath
func (t *SoATables[F]) AccumHmPlanes(coefRe, coefIm F, v, out *soa.Block[F]) {
	t.checkBlockShape(v, out)
	g := t.op.G
	plane := g.Nx * g.Ny
	for d := 1; d <= t.op.St.Nf; d++ {
		// The first d planes couple to the top d planes of the previous cell.
		if cr, ci := t.kz[d]*coefRe, t.kz[d]*coefIm; cr != 0 || ci != 0 {
			soa.AxpyRows(out, v, 0, (g.Nz-d)*plane, d*plane, cr, ci)
		}
	}
	t.accumNonlocalBlock(coefRe, coefIm, v, out, -1)
}

// accumNonlocalBlock accumulates the separable projector term with cell
// offset l on split planes, out += coef * sum_j p^j h <p^{j+l}, V>: columns
// in stack-resident chunks (columns are independent here, so chunking
// keeps each column's order), one gather per (projector, offset pair) into
// the sums, scaled by the complex channel coefficient h*coef, then one
// scatter back through the row support.
//
//cbs:hotpath
func (t *SoATables[F]) accumNonlocalBlock(coefRe, coefIm F, v, out *soa.Block[F], l int) {
	var stackRe, stackIm [blockStackCols]F
	op := t.op
	nb := v.NB()
	for c0 := 0; c0 < nb; c0 += blockStackCols {
		cw := min(nb-c0, blockStackCols)
		sumsRe := stackRe[:cw]
		sumsIm := stackIm[:cw]
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
				soa.GatherDot(sumsRe, sumsIm, v, c0, col.Idx, t.projVal[pi][jc+1])
				chr := t.projH[pi] * coefRe
				chi := t.projH[pi] * coefIm
				for k := range sumsRe {
					sr, si := sumsRe[k], sumsIm[k]
					sumsRe[k] = sr*chr - si*chi
					sumsIm[k] = sr*chi + si*chr
				}
				soa.ScatterAxpy(out, c0, row.Idx, t.projVal[pi][j+1], sumsRe, sumsIm)
			}
		}
	}
}
