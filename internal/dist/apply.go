package dist

import (
	"cbs/internal/comm"
)

// applyCtx holds the per-rank scratch buffers of the distributed operator
// application out = P(z) v.
type applyCtx struct {
	s    *Solver
	rank int
	rs   *rankState

	plane int
	halo  int // halo points per side: Nf * plane

	ext  []complex128 // [lower halo | local planes | upper halo]
	csum []complex128 // projector coefficient workspace (3 per projector)
}

func newApplyCtx(s *Solver, rank int) *applyCtx {
	g := s.Q.Op.G
	plane := g.PlaneSize()
	nf := s.Q.Op.St.Nf
	rs := s.ranks[rank]
	return &applyCtx{
		s: s, rank: rank, rs: rs,
		plane: plane,
		halo:  nf * plane,
		ext:   make([]complex128, rs.n+2*nf*plane),
		csum:  make([]complex128, 3*len(s.Q.Op.Projs)),
	}
}

// apply computes out = P(z) v for the local slab, exchanging halos with the
// ring neighbours (Bloch twist z at the cell seam) and allreducing the
// nonlocal projector coefficients. A communication failure aborts the
// application; out is unspecified then.
func (a *applyCtx) apply(c *comm.Communicator, z complex128, v, out []complex128) error {
	s := a.s
	op := s.Q.Op
	g := op.G
	nf := op.St.Nf
	plane := a.plane
	n := a.rs.n
	ndm := s.Ndm

	// --- halo exchange ---------------------------------------------------
	// ext = [lower halo (nf planes) | v | upper halo (nf planes)].
	copy(a.ext[a.halo:a.halo+n], v)
	up := (a.rank + 1) % ndm
	down := (a.rank - 1 + ndm) % ndm
	if ndm == 1 {
		// Self-wrap: both halos come from this rank's own data across the
		// cell seam.
		copy(a.ext[a.halo+n:], v[:a.halo]) // upper halo = bottom planes
		copy(a.ext[:a.halo], v[n-a.halo:]) // lower halo = top planes
		scale(a.ext[a.halo+n:], z)         // crossing up: factor z
		scale(a.ext[:a.halo], 1/z)         // crossing down: factor 1/z
	} else {
		// My lower halo is the top planes of the rank below; my upper halo
		// the bottom planes of the rank above. Both ranks issue the sends
		// in the same order, which keeps the channel pairing consistent
		// even when up == down (two domains).
		lowerHalo, err := c.SendRecv(up, v[n-a.halo:], down) // send my top up, recv down's top
		if err != nil {
			return err
		}
		upperHalo, err := c.SendRecv(down, v[:a.halo], up) // send my bottom down, recv up's bottom
		if err != nil {
			return err
		}
		copy(a.ext[:a.halo], lowerHalo)
		copy(a.ext[a.halo+n:], upperHalo)
		if a.rank == ndm-1 {
			scale(a.ext[a.halo+n:], z) // my up link crosses the seam
		}
		if a.rank == 0 {
			scale(a.ext[:a.halo], 1/z) // my down link crosses the seam
		}
	}

	// --- diagonal + local potential ---------------------------------------
	e := s.Q.E
	vloc := op.VLoc[a.rs.offset : a.rs.offset+n]
	for i := 0; i < n; i++ {
		out[i] = complex(e-vloc[i]-op.Diag(), 0) * v[i]
	}

	// --- x and y stencil tails (local planes) -----------------------------
	nx, ny := g.Nx, g.Ny
	planes := a.rs.slab.NPlanes()
	for iz := 0; iz < planes; iz++ {
		for iy := 0; iy < ny; iy++ {
			base := (iz*ny + iy) * nx
			row := v[base : base+nx]
			orow := out[base : base+nx]
			for d := 1; d <= nf; d++ {
				kc := complex(-op.Kx(d), 0)
				xp, xm := op.NeighborX(d)
				for ix := 0; ix < nx; ix++ {
					orow[ix] += kc * (row[xp[ix]] + row[xm[ix]])
				}
			}
		}
		planeBase := iz * ny * nx
		for d := 1; d <= nf; d++ {
			kc := complex(-op.Ky(d), 0)
			yp, ym := op.NeighborY(d)
			for iy := 0; iy < ny; iy++ {
				base := planeBase + iy*nx
				bp := planeBase + int(yp[iy])*nx
				bm := planeBase + int(ym[iy])*nx
				for ix := 0; ix < nx; ix++ {
					out[base+ix] += kc * (v[bp+ix] + v[bm+ix])
				}
			}
		}
	}

	// --- z stencil tails using the halo-extended array --------------------
	for d := 1; d <= nf; d++ {
		kc := complex(-op.Kz(d), 0)
		off := d * plane
		for i := 0; i < n; i++ {
			out[i] += kc * (a.ext[a.halo+i+off] + a.ext[a.halo+i-off])
		}
	}

	// --- nonlocal projectors ----------------------------------------------
	for i := range a.csum {
		a.csum[i] = 0
	}
	for _, seg := range a.rs.segs {
		var sum complex128
		for i, idx := range seg.idx {
			sum += complex(seg.val[i], 0) * v[idx]
		}
		a.csum[3*seg.proj+seg.off] += sum
	}
	coefs, err := c.AllreduceSum(a.csum)
	if err != nil {
		return err
	}
	zi := 1 / z
	for _, seg := range a.rs.segs {
		j := seg.off - 1 // cell offset of the row-side support
		h := complex(op.Projs[seg.proj].H, 0)
		coef := coefs[3*seg.proj+seg.off]
		if j <= 0 {
			coef += z * coefs[3*seg.proj+seg.off+1]
		}
		if j >= 0 {
			coef += zi * coefs[3*seg.proj+seg.off-1]
		}
		coef = -h * coef
		if coef == 0 {
			continue
		}
		for i, idx := range seg.idx {
			out[idx] += coef * complex(seg.val[i], 0)
		}
	}
	return nil
}

// applyDagger computes out = P(z)^dagger v = P(1/conj(z)) v; zd must be
// 1/conj(z).
func (a *applyCtx) applyDagger(c *comm.Communicator, zd complex128, v, out []complex128) error {
	return a.apply(c, zd, v, out)
}

func scale(v []complex128, f complex128) {
	for i := range v {
		v[i] *= f
	}
}
