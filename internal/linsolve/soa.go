package linsolve

import (
	"math"

	"cbs/internal/soa"
)

// BlockApplySoA computes out = A*V on split-complex planes (block shape
// carried by the soa.Block).
type BlockApplySoA[F soa.Float] func(v, out *soa.Block[F])

// WorkspaceSoA is the split-complex counterpart of Workspace: the Krylov
// block vectors live as float planes and the per-column recurrence scalars
// stay complex128. Each iteration splits them once into plane-typed
// per-column coefficient arrays (alpha and beta with their conjugate and
// negated parts) and lane masks, which is all the soa column-lane kernels
// need to run the updates with one vector lane per column. One workspace
// per worker is reused across all quadrature points; the steady-state
// solve allocates nothing.
type WorkspaceSoA[F soa.Float] struct {
	n, nb int

	r, rd, p, pd, q, qd *soa.Block[F]

	rho, alpha, beta, dots []complex128
	coRe, coIm             []F      // alpha or beta split per column
	negRe, negIm           []F      // the same parts negated
	dRe, dIm               []F      // column-dot accumulators
	live                   []uint64 // lane masks: all-ones = update the column
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
		co := make([]F, 6*nb) // one backing array for the six per-column planes
		w.coRe, w.coIm = co[0*nb:1*nb:1*nb], co[1*nb:2*nb:2*nb]
		w.negRe, w.negIm = co[2*nb:3*nb:3*nb], co[3*nb:4*nb:4*nb]
		w.dRe, w.dIm = co[4*nb:5*nb:5*nb], co[5*nb:6*nb:6*nb]
		w.live = make([]uint64, nb)
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

// MemoryBytes reports the workspace's resident bytes: the six Krylov blocks
// and, per column, four complex scalars, the six coefficient/dot planes, the
// lane mask, six float64 norms and the active flag.
func (w *WorkspaceSoA[F]) MemoryBytes() int64 {
	return w.r.MemoryBytes()*6 + int64(cap(w.rho))*(4*16+6*8+8+6*8+1)
}

// blockDotsSoA computes dots[c] = <x_c, y_c> on split planes, reproducing
// blockDots bit-for-bit (the sign-flip of the conjugate is exact).
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) blockDotsSoA(dots []complex128, x, y *soa.Block[F]) {
	dRe, dIm := w.dRe[:w.nb], w.dIm[:w.nb]
	soa.DotCols(dRe, dIm, x, y)
	for c := range dots {
		dots[c] = complex(float64(dRe[c]), float64(dIm[c]))
	}
}

// blockNormsSoA computes nrm[c] = ||x_c|| on split planes (bit-identical
// to blockNorms): the real part of <x_c, x_c> is the same row-ordered sum
// of re*re + im*im.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) blockNormsSoA(nrm []float64, x *soa.Block[F]) {
	dRe, dIm := w.dRe[:w.nb], w.dIm[:w.nb]
	soa.DotCols(dRe, dIm, x, x)
	for c := range nrm {
		nrm[c] = math.Sqrt(float64(dRe[c]))
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

	ws.blockNormsSoA(nrmB, b)
	ws.blockNormsSoA(nrmBD, bd)
	for c := range nrmB {
		if nrmB[c] == 0 {
			nrmB[c] = 1
		}
		if nrmBD[c] == 0 {
			nrmBD[c] = 1
		}
	}
	ws.blockDotsSoA(rho, rd, r)
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
	ws.blockNormsSoA(rel, r)
	ws.blockNormsSoA(relD, rd)
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
		ws.blockDotsSoA(dots, pd, q)
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
		ws.updateSolutionsSoA(x, xd, alpha)
		ws.blockDotsSoA(dots, rd, r)
		for c := 0; c < nb; c++ {
			beta[c] = 0
			if !active[c] {
				continue
			}
			beta[c] = dots[c] / rho[c]
			rho[c] = dots[c]
		}
		ws.updateDirectionsSoA(beta, active)
		ws.blockNormsSoA(nrm2, r)
		ws.blockNormsSoA(nrm2d, rd)
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

// splitCoefs splits the per-column scalars z into the workspace's (re, im)
// coefficient arrays and their negations, once per update step.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) splitCoefs(z []complex128) (re, im, negRe, negIm []F, live []uint64) {
	nb := len(z)
	re, im, negRe, negIm = w.coRe[:nb], w.coIm[:nb], w.negRe[:nb], w.negIm[:nb]
	for c, v := range z {
		re[c], im[c] = F(real(v)), F(imag(v))
		negRe[c], negIm[c] = -re[c], -im[c]
	}
	return re, im, negRe, negIm, w.live[:nb]
}

// lane is one column's mask for the soa column-lane kernels: all-ones
// updates the column, zero leaves it bit-unchanged.
//
//cbs:hotpath
func lane(on bool) uint64 {
	if on {
		return ^uint64(0)
	}
	return 0
}

// updateSolutionsSoA is the alpha-step on split planes: x += alpha*p,
// xd += conj(alpha)*pd, r -= alpha*q, rd -= conj(alpha)*qd, each one masked
// column-lane pass with the conjugation and the subtraction folded into the
// coefficient's signs (exact; see the soa column-lane kernels). Per element
// the multiplies and adds are those of updateSolutions in the same order,
// so the iterates are bit-identical. alpha = 0 freezes a column exactly as
// in the AoS path: its lane is masked off and nothing is stored to it.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) updateSolutionsSoA(x, xd *soa.Block[F], alpha []complex128) {
	re, im, negRe, negIm, live := w.splitCoefs(alpha)
	for c, al := range alpha {
		live[c] = lane(al != 0)
	}
	soa.AxpyCols(x, w.p, re, im, live)
	soa.AxpyCols(xd, w.pd, re, negIm, live)
	soa.AxpyCols(w.r, w.q, negRe, negIm, live)
	soa.AxpyCols(w.rd, w.qd, negRe, im, live)
}

// updateDirectionsSoA is the beta-step on split planes: p = r + beta*p and
// its dual with conj(beta), frozen columns masked off.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) updateDirectionsSoA(beta []complex128, active []bool) {
	re, im, _, negIm, live := w.splitCoefs(beta)
	for c, on := range active {
		live[c] = lane(on)
	}
	soa.XpayCols(w.p, w.r, re, im, live)
	soa.XpayCols(w.pd, w.rd, re, negIm, live)
}
