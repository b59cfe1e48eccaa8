package linsolve

import (
	"math"

	"cbs/internal/soa"
)

// BlockApplySoA computes out = A*V on split-complex planes (block shape
// carried by the soa.Block).
type BlockApplySoA[F soa.Float] func(v, out *soa.Block[F])

// WorkspaceSoA is the split-complex counterpart of Workspace: the Krylov
// block vectors live as float planes, the per-column recurrence scalars
// stay complex128 (they are O(nb) bookkeeping, not bandwidth), and a pair
// of plane-typed scalar scratch arrays carries the per-iteration alpha/beta
// splits so the plane update kernels never re-box in their inner loops. One
// workspace per worker is reused across all quadrature points; the
// steady-state solve allocates nothing.
type WorkspaceSoA[F soa.Float] struct {
	n, nb int

	r, rd, p, pd, q, qd *soa.Block[F]

	rho, alpha, beta, dots []complex128
	alRe, alIm             []F // alpha split per column
	beRe, beIm             []F // beta split per column
	nrmB, nrmBD, rel, relD []float64
	nrm2, nrm2d            []float64
	active                 []bool

	results []Result
}

// NewWorkspaceSoA allocates a split-complex workspace for n x nb solves.
func NewWorkspaceSoA[F soa.Float](n, nb int) *WorkspaceSoA[F] {
	w := &WorkspaceSoA[F]{}
	w.Reserve(n, nb)
	return w
}

// Reserve grows the workspace to hold an n x nb solve, reusing capacity.
func (w *WorkspaceSoA[F]) Reserve(n, nb int) {
	w.n, w.nb = n, nb
	if w.r == nil {
		w.r = soa.NewBlock[F](n, nb)
		w.rd = soa.NewBlock[F](n, nb)
		w.p = soa.NewBlock[F](n, nb)
		w.pd = soa.NewBlock[F](n, nb)
		w.q = soa.NewBlock[F](n, nb)
		w.qd = soa.NewBlock[F](n, nb)
	} else {
		w.r.Reserve(n, nb)
		w.rd.Reserve(n, nb)
		w.p.Reserve(n, nb)
		w.pd.Reserve(n, nb)
		w.q.Reserve(n, nb)
		w.qd.Reserve(n, nb)
	}
	if cap(w.rho) < nb {
		w.rho = make([]complex128, nb)
		w.alpha = make([]complex128, nb)
		w.beta = make([]complex128, nb)
		w.dots = make([]complex128, nb)
		w.alRe = make([]F, nb)
		w.alIm = make([]F, nb)
		w.beRe = make([]F, nb)
		w.beIm = make([]F, nb)
		w.nrmB = make([]float64, nb)
		w.nrmBD = make([]float64, nb)
		w.rel = make([]float64, nb)
		w.relD = make([]float64, nb)
		w.nrm2 = make([]float64, nb)
		w.nrm2d = make([]float64, nb)
		w.active = make([]bool, nb)
		w.results = make([]Result, nb)
	}
}

// MemoryBytes reports the workspace's resident bytes.
func (w *WorkspaceSoA[F]) MemoryBytes() int64 {
	return w.r.MemoryBytes()*6 + int64(cap(w.rho))*(4*16+4*8+6*8+1)
}

// blockDotsSoA computes dots[c] = <x_c, y_c> on split planes, reproducing
// blockDots bit-for-bit (the sign-flip of the conjugate is exact).
//
//cbs:hotpath
func blockDotsSoA[F soa.Float](dots []complex128, x, y *soa.Block[F]) {
	for c := range dots {
		dots[c] = 0
	}
	nb := x.NB()
	n := x.N()
	for i := 0; i < n; i++ {
		o := i * nb
		xr := x.Re[o : o+nb]
		xi := x.Im[o:][:nb]
		yr := y.Re[o:][:nb]
		yi := y.Im[o:][:nb]
		for c := range dots {
			ar, ai := float64(xr[c]), float64(xi[c])
			br, bi := float64(yr[c]), float64(yi[c])
			re := ar*br + ai*bi
			im := ar*bi - ai*br
			dots[c] += complex(re, im)
		}
	}
}

// blockNormsSoA computes nrm[c] = ||x_c|| on split planes (bit-identical
// to blockNorms).
//
//cbs:hotpath
func blockNormsSoA[F soa.Float](nrm []float64, x *soa.Block[F]) {
	for c := range nrm {
		nrm[c] = 0
	}
	nb := x.NB()
	n := x.N()
	for i := 0; i < n; i++ {
		o := i * nb
		xr := x.Re[o : o+nb]
		xi := x.Im[o:][:nb]
		for c := range nrm {
			re, im := float64(xr[c]), float64(xi[c])
			nrm[c] += re*re + im*im
		}
	}
	for c := range nrm {
		nrm[c] = math.Sqrt(nrm[c])
	}
}

// BlockBiCGDualSoA is BlockBiCGDual on split-complex planes: the same
// algorithm, masking, group-stop, chaos-injection and breakdown behaviour,
// with the block vectors stored as soa.Block planes. Every result
// (solution bits, residuals, iteration counts) is identical to the AoS
// solver. The returned slice aliases ws.results; ws may be nil.
func BlockBiCGDualSoA[F soa.Float](a, ad BlockApplySoA[F], b, bd, x, xd *soa.Block[F], opts Options, groups []*GroupStop, ws *WorkspaceSoA[F]) []Result {
	n, nb := b.N(), b.NB()
	if nb < 1 {
		panic("linsolve: BlockBiCGDualSoA bad block width")
	}
	if bd.N() != n || bd.NB() != nb || x.N() != n || x.NB() != nb || xd.N() != n || xd.NB() != nb {
		panic("linsolve: BlockBiCGDualSoA shape mismatch")
	}
	if groups != nil && len(groups) != nb {
		panic("linsolve: BlockBiCGDualSoA groups length mismatch")
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter(n)
	}
	if ws == nil {
		ws = NewWorkspaceSoA[F](n, nb)
	} else {
		ws.Reserve(n, nb)
	}
	r, rd := ws.r, ws.rd
	p, pd := ws.p, ws.pd
	q, qd := ws.q, ws.qd
	rho, alpha, beta, dots := ws.rho[:nb], ws.alpha[:nb], ws.beta[:nb], ws.dots[:nb]
	alRe, alIm := ws.alRe[:nb], ws.alIm[:nb]
	beRe, beIm := ws.beRe[:nb], ws.beIm[:nb]
	nrmB, nrmBD := ws.nrmB[:nb], ws.nrmBD[:nb]
	rel, relD := ws.rel[:nb], ws.relD[:nb]
	nrm2, nrm2d := ws.nrm2[:nb], ws.nrm2d[:nb]
	active := ws.active[:nb]
	results := ws.results[:nb]

	group := func(c int) *GroupStop {
		if groups == nil {
			return nil
		}
		return groups[c]
	}

	// r = b - A x, rd = bd - A^dagger xd.
	a(x, q)
	ad(xd, qd)
	for c := range results {
		results[c] = Result{MatVecApplied: 2}
		active[c] = true
	}
	subPlanes(r.Re, b.Re, q.Re)
	subPlanes(r.Im, b.Im, q.Im)
	subPlanes(rd.Re, bd.Re, qd.Re)
	subPlanes(rd.Im, bd.Im, qd.Im)
	copy(p.Re, r.Re)
	copy(p.Im, r.Im)
	copy(pd.Re, rd.Re)
	copy(pd.Im, rd.Im)

	blockNormsSoA(nrmB, b)
	blockNormsSoA(nrmBD, bd)
	for c := range nrmB {
		if nrmB[c] == 0 {
			nrmB[c] = 1
		}
		if nrmBD[c] == 0 {
			nrmBD[c] = 1
		}
	}
	blockDotsSoA(rho, rd, r)
	if opts.Chaos != nil {
		// Injected per-column Lanczos breakdowns (deterministic per
		// (point, column, attempt) site; see internal/chaos).
		for c := range rho {
			s := opts.ChaosSite
			s.Col += c
			//cbs:chaossite bicg.soa-breakdown
			if opts.Chaos.Breakdown(s) {
				rho[c] = 0
			}
		}
	}
	blockNormsSoA(rel, r)
	blockNormsSoA(relD, rd)
	for c := range rel {
		rel[c] /= nrmB[c]
		relD[c] /= nrmBD[c]
	}
	if opts.History {
		results[0].History = append(results[0].History, rel[0])
	}

	remaining := nb
	for iter := 0; iter < maxIter && remaining > 0; iter++ {
		for c := 0; c < nb; c++ {
			if !active[c] {
				continue
			}
			if rel[c] <= opts.Tol && relD[c] <= opts.Tol {
				results[c].Converged = true
				if g := group(c); g != nil {
					g.MarkConverged()
				}
				active[c] = false
				remaining--
				continue
			}
			if g := group(c); g != nil && rel[c] <= opts.looseTol() && relD[c] <= opts.looseTol() && g.ShouldStop() {
				results[c].StoppedEarly = true
				active[c] = false
				remaining--
				continue
			}
			if cabs2(rho[c]) < breakdownTol {
				results[c].Breakdown = true
				active[c] = false
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		a(p, q)
		ad(pd, qd)
		blockDotsSoA(dots, pd, q)
		for c := 0; c < nb; c++ {
			alpha[c] = 0
			if !active[c] {
				continue
			}
			results[c].MatVecApplied += 2
			if cabs2(dots[c]) < breakdownTol {
				results[c].Breakdown = true
				active[c] = false
				remaining--
				continue
			}
			alpha[c] = rho[c] / dots[c]
		}
		if remaining == 0 {
			break
		}
		splitScalars(alRe, alIm, alpha)
		updateSolutionsSoA(x, xd, r, rd, p, pd, q, qd, alRe, alIm)
		blockDotsSoA(dots, rd, r)
		for c := 0; c < nb; c++ {
			beta[c] = 0
			if !active[c] {
				continue
			}
			beta[c] = dots[c] / rho[c]
			rho[c] = dots[c]
		}
		splitScalars(beRe, beIm, beta)
		updateDirectionsSoA(p, pd, r, rd, beRe, beIm, active)
		blockNormsSoA(nrm2, r)
		blockNormsSoA(nrm2d, rd)
		for c := 0; c < nb; c++ {
			if !active[c] {
				continue
			}
			rel[c] = nrm2[c] / nrmB[c]
			relD[c] = nrm2d[c] / nrmBD[c]
			results[c].Iterations++
		}
		if opts.History && active[0] {
			results[0].History = append(results[0].History, rel[0])
		}
	}
	for c := 0; c < nb; c++ {
		if active[c] && rel[c] <= opts.Tol && relD[c] <= opts.Tol {
			results[c].Converged = true
			if g := group(c); g != nil {
				g.MarkConverged()
			}
		}
		results[c].Residual = rel[c]
		results[c].DualResidual = relD[c]
	}
	return results
}

// subPlanes computes dst = a - b over one plane.
//
//cbs:hotpath
func subPlanes[F soa.Float](dst, a, b []F) {
	b = b[:len(dst)]
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// splitScalars splits per-column complex scalars into (re, im) pairs once
// per iteration.
func splitScalars[F soa.Float](re, im []F, z []complex128) {
	for c := range z {
		re[c] = F(real(z[c]))
		im[c] = F(imag(z[c]))
	}
}

// updateSolutionsSoA is the fused alpha-step on split planes. Per element
// the real/imag update sequence reproduces the complex multiply-accumulate
// of updateSolutions operation by operation (the conjugate's sign flip is
// folded algebraically, which is exact), so the iterates are
// bit-identical. alpha = 0 freezes a column exactly as in the AoS path.
//
//cbs:hotpath
func updateSolutionsSoA[F soa.Float](x, xd, r, rd, p, pd, q, qd *soa.Block[F], alRe, alIm []F) {
	n, nb := x.N(), x.NB()
	for i := 0; i < n; i++ {
		o := i * nb
		for c := range alRe {
			ar, ai := alRe[c], alIm[c]
			if ar == 0 && ai == 0 {
				continue
			}
			j := o + c
			pr, pi := p.Re[j], p.Im[j]
			x.Re[j] += ar*pr - ai*pi
			x.Im[j] += ar*pi + ai*pr
			pdr, pdi := pd.Re[j], pd.Im[j]
			xd.Re[j] += ar*pdr + ai*pdi
			xd.Im[j] += ar*pdi - ai*pdr
			qr, qi := q.Re[j], q.Im[j]
			r.Re[j] -= ar*qr - ai*qi
			r.Im[j] -= ar*qi + ai*qr
			qdr, qdi := qd.Re[j], qd.Im[j]
			rd.Re[j] -= ar*qdr + ai*qdi
			rd.Im[j] -= ar*qdi - ai*qdr
		}
	}
}

// updateDirectionsSoA is the fused beta-step on split planes: p = r + beta*p
// and its dual with conj(beta), skipping frozen columns.
//
//cbs:hotpath
func updateDirectionsSoA[F soa.Float](p, pd, r, rd *soa.Block[F], beRe, beIm []F, active []bool) {
	n, nb := p.N(), p.NB()
	for i := 0; i < n; i++ {
		o := i * nb
		for c := range beRe {
			if !active[c] {
				continue
			}
			br, bi := beRe[c], beIm[c]
			j := o + c
			pr, pi := p.Re[j], p.Im[j]
			p.Re[j] = r.Re[j] + (br*pr - bi*pi)
			p.Im[j] = r.Im[j] + (br*pi + bi*pr)
			pdr, pdi := pd.Re[j], pd.Im[j]
			pd.Re[j] = rd.Re[j] + (br*pdr + bi*pdi)
			pd.Im[j] = rd.Im[j] + (br*pdi - bi*pdr)
		}
	}
}
