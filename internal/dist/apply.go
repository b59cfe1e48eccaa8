package dist

import (
	"fmt"

	"cbs/internal/comm"
	"cbs/internal/soa"
)

// rankApply is one rank's scratch for the rank-local P(z) apply of an
// n x nb block on its slab rows: the halo-extended planes the stencil rows
// read and write, the halo message, and the projector coefficients of all
// nb columns. err keeps the first communication failure: the solver's apply
// callback cannot return one, so the rank's next reduction reports it.
type rankApply struct {
	s    *Solver
	rs   *rankState
	c    *comm.Communicator
	rank int

	ext, extOut    *soa.Block[float64] // [lower halo | slab rows | upper halo]
	halo           []complex128        // one halo message: Nf planes x nb columns
	csum           []complex128        // per (projector, cell offset, column)
	sumRe, sumIm   []float64
	coefRe, coefIm []float64
	red            []complex128 // one reduction step plus the cancel flag

	err error
}

func (s *Solver) newRankApply(rank int, c *comm.Communicator, nb int) *rankApply {
	rs := s.ranks[rank]
	h := s.halo
	return &rankApply{
		s: s, rs: rs, c: c, rank: rank,
		ext:    soa.NewBlock[float64](rs.n+2*h, nb),
		extOut: soa.NewBlock[float64](rs.n+2*h, nb),
		halo:   make([]complex128, h*nb),
		csum:   make([]complex128, 3*len(s.projH)*nb),
		sumRe:  make([]float64, nb), sumIm: make([]float64, nb),
		coefRe: make([]float64, nb), coefIm: make([]float64, nb),
		red: make([]complex128, 0, 3*nb+1),
	}
}

// applyTo is the solver's apply callback: out = P(z) v on the slab rows,
// unless an earlier communication failure already doomed the solve.
func (a *rankApply) applyTo(z complex128, v, out *soa.Block[float64]) {
	if a.err == nil {
		a.err = a.apply(z, v, out)
	}
}

// apply computes out = P(z) v for the slab: one halo exchange with the ring
// neighbours (Bloch twist z at the cell seam), the stencil on the extended
// planes, and one allreduce of every column's projector coefficients. A
// communication failure aborts the apply; out is unspecified then.
func (a *rankApply) apply(z complex128, v, out *soa.Block[float64]) error {
	h, n, ndm := a.s.halo, a.rs.n, a.s.Ndm
	copy(a.ext.Re[h*v.NB():], v.Re)
	copy(a.ext.Im[h*v.NB():], v.Im)
	// My lower halo is the top planes of the rank below, my upper halo the
	// bottom planes of the rank above. Every rank sends in the same order,
	// which keeps the links' FIFO pairing when up == down (two domains) or
	// both are this rank (one domain).
	up, down := (a.rank+1)%ndm, (a.rank-1+ndm)%ndm
	twistDown, twistUp := complex(1, 0), complex(1, 0)
	if a.rank == 0 {
		twistDown = 1 / z // my down link crosses the seam
	}
	if a.rank == ndm-1 {
		twistUp = z // my up link crosses the seam
	}
	packRows(a.halo, v, n-h)
	lower, err := a.c.SendRecv(up, a.halo, down)
	if err != nil {
		return fmt.Errorf("dist: rank %d halo exchange: %w", a.rank, err)
	}
	unpackRows(a.ext, 0, lower, twistDown)
	packRows(a.halo, v, 0)
	upper, err := a.c.SendRecv(down, a.halo, up)
	if err != nil {
		return fmt.Errorf("dist: rank %d halo exchange: %w", a.rank, err)
	}
	unpackRows(a.ext, h+n, upper, twistUp)

	a.stencil(out)
	a.gather(v)
	coefs, err := a.c.AllreduceSum(a.csum)
	if err != nil {
		return fmt.Errorf("dist: rank %d projector reduction: %w", a.rank, err)
	}
	a.scatter(z, coefs, out)
	return nil
}

// packRows copies len(buf)/nb rows of v from row r0 into a halo message.
//
//cbs:hotpath
func packRows(buf []complex128, v *soa.Block[float64], r0 int) {
	re, im := v.Re[r0*v.NB():], v.Im[r0*v.NB():]
	re, im = re[:len(buf)], im[:len(buf)]
	for k := range buf {
		buf[k] = complex(re[k], im[k])
	}
}

// unpackRows writes a halo message, times the Bloch twist f, into the rows
// of ext from row r0.
//
//cbs:hotpath
func unpackRows(ext *soa.Block[float64], r0 int, buf []complex128, f complex128) {
	re, im := ext.Re[r0*ext.NB():], ext.Im[r0*ext.NB():]
	re, im = re[:len(buf)], im[:len(buf)]
	for k, e := range buf {
		e *= f
		re[k], im[k] = real(e), imag(e)
	}
}

// stencil writes (E - H0loc) of the slab rows into out: the row kernel runs
// over the extended planes, whose halos hold every z neighbour, and the
// slab rows of its output are copied out.
//
//cbs:hotpath
func (a *rankApply) stencil(out *soa.Block[float64]) {
	s, rs := a.s, a.rs
	for iz := s.nf; iz < s.nf+rs.planes; iz++ {
		for iy := 0; iy < s.ny; iy++ {
			soa.StencilRow(rs.stencil, &s.coef, rs.vloc, a.ext, a.extOut, iz, iy)
		}
	}
	o := s.halo * out.NB()
	copy(out.Re, a.extOut.Re[o:])
	copy(out.Im, a.extOut.Im[o:])
}

// gather sums every column's projector dots over the slab's share of each
// support into csum, the partials the allreduce completes.
//
//cbs:hotpath
func (a *rankApply) gather(v *soa.Block[float64]) {
	nb := v.NB()
	for i := range a.csum {
		a.csum[i] = 0
	}
	for _, seg := range a.rs.segs {
		soa.GatherDot(a.sumRe, a.sumIm, v, 0, seg.idx, seg.val)
		sums := a.csum[(3*seg.proj+seg.off)*nb:][:nb]
		for c := range sums {
			sums[c] = complex(a.sumRe[c], a.sumIm[c])
		}
	}
}

// scatter adds the nonlocal part of P(z) through the slab's share of each
// row support: for the support at cell offset j the coefficient is
// -h (C_j + z C_{j+1} + C_{j-1} / z) with the global dots C.
//
//cbs:hotpath
func (a *rankApply) scatter(z complex128, coefs []complex128, out *soa.Block[float64]) {
	nb := out.NB()
	zi := 1 / z
	for _, seg := range a.rs.segs {
		j := seg.off - 1
		h := complex(a.s.projH[seg.proj], 0)
		base := 3 * seg.proj * nb
		for c := 0; c < nb; c++ {
			coef := coefs[base+seg.off*nb+c]
			if j <= 0 {
				coef += z * coefs[base+(seg.off+1)*nb+c]
			}
			if j >= 0 {
				coef += zi * coefs[base+(seg.off-1)*nb+c]
			}
			coef = -h * coef
			a.coefRe[c], a.coefIm[c] = real(coef), imag(coef)
		}
		soa.ScatterAxpy(out, 0, seg.idx, seg.val, a.coefRe, a.coefIm)
	}
}
