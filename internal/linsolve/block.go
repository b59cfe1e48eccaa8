package linsolve

import (
	"math"
)

// BlockApply computes out = A*V for an n x nb block stored row-major by
// row index (the nb column values of row i at v[i*nb:(i+1)*nb]).
type BlockApply func(v, out []complex128, nb int)

// blockSteps is the layout half of the masked dual-BiCG recurrence: the
// vector work of one iteration on a workspace's Krylov blocks. Workspace
// (interleaved) and WorkspaceSoA (split planes) implement it over the
// operands bound for the current solve; dualRecurrence.run owns everything
// else.
type blockSteps interface {
	start(nrmB, nrmBD []float64)               // r = b - A x, rd = bd - A^dagger xd; p = r, pd = rd; ||b_c||, ||bd_c||
	apply()                                    // q = A p, qd = A^dagger pd
	residualNorms(nrm, nrmD []float64)         // ||r_c||, ||rd_c||
	residualDots(dots []complex128)            // <rd_c, r_c>
	directionDots(dots []complex128)           // <pd_c, q_c>
	alphaStep(alpha []complex128)              // x += alpha p, r -= alpha q and their duals with conj(alpha)
	betaStep(beta []complex128, active []bool) // p = r + beta p and its dual with conj(beta)
}

// dualRecurrence is the per-column scalar state of the nb independent dual
// BiCG recurrences of one block solve, shared by both workspace layouts.
type dualRecurrence struct {
	rho, alpha, beta, dots []complex128
	nrmB, nrmBD, rel, relD []float64
	nrm2, nrm2d            []float64 // norm scratch (frozen columns keep rel)
	active                 []bool

	results []Result
}

func (rc *dualRecurrence) reserve(nb int) {
	if cap(rc.rho) >= nb {
		return
	}
	z := make([]complex128, 4*nb) // one backing array per element type
	rc.rho, rc.alpha, rc.beta, rc.dots = z[:nb:nb], z[nb:2*nb:2*nb], z[2*nb:3*nb:3*nb], z[3*nb:]
	f := make([]float64, 6*nb)
	rc.nrmB, rc.nrmBD, rc.rel = f[:nb:nb], f[nb:2*nb:2*nb], f[2*nb:3*nb:3*nb]
	rc.relD, rc.nrm2, rc.nrm2d = f[3*nb:4*nb:4*nb], f[4*nb:5*nb:5*nb], f[5*nb:]
	rc.active = make([]bool, nb)
	rc.results = make([]Result, nb)
}

// memoryBytes is the resident size of the per-column state: four complex
// scalars, six float64 norms and the active flag per column.
func (rc *dualRecurrence) memoryBytes() int64 {
	return int64(cap(rc.rho)) * (4*16 + 6*8 + 1)
}

// run is the one masked dual-BiCG loop: nb mathematically independent dual
// recurrences (Saad, Iterative Methods, Sec. 7.3) advanced in lockstep over
// the blocks behind s, from the initial guesses bound there. Columns
// converge, stop early (per-column GroupStop in groups, which may be nil or
// hold nil entries) and break down independently: a finished column is
// masked out of the updates (its x_c, xd_c freeze) while the rest keep
// iterating, exactly reproducing the per-column BiCGDual results. The
// returned slice aliases rc.results.
func (rc *dualRecurrence) run(s blockSteps, n, nb int, opts Options, groups []*GroupStop) []Result {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter(n)
	}
	rho, alpha, beta, dots := rc.rho[:nb], rc.alpha[:nb], rc.beta[:nb], rc.dots[:nb]
	nrmB, nrmBD := rc.nrmB[:nb], rc.nrmBD[:nb]
	rel, relD := rc.rel[:nb], rc.relD[:nb]
	nrm2, nrm2d := rc.nrm2[:nb], rc.nrm2d[:nb]
	active := rc.active[:nb]
	results := rc.results[:nb]

	group := func(c int) *GroupStop {
		if groups == nil {
			return nil
		}
		return groups[c]
	}

	s.start(nrmB, nrmBD)
	for c := range results {
		results[c] = Result{MatVecApplied: 2}
		active[c] = true
	}
	for c := range nrmB {
		if nrmB[c] == 0 {
			nrmB[c] = 1
		}
		if nrmBD[c] == 0 {
			nrmBD[c] = 1
		}
	}
	s.residualDots(rho)
	if opts.Chaos != nil {
		// Injected per-column Lanczos breakdowns (deterministic per
		// (point, column, attempt) site; see internal/chaos).
		for c := range rho {
			site := opts.ChaosSite
			site.Col += c
			//cbs:chaossite bicg.block-breakdown
			if opts.Chaos.Breakdown(site) {
				rho[c] = 0
			}
		}
	}
	s.residualNorms(rel, relD)
	for c := range rel {
		rel[c] /= nrmB[c]
		relD[c] /= nrmBD[c]
	}
	if opts.History {
		results[0].History = append(results[0].History, rel[0])
	}

	remaining := nb
	for iter := 0; iter < maxIter && remaining > 0; iter++ {
		// Per-column state checks, mirroring the single-vector loop head.
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
		s.apply()
		s.directionDots(dots)
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
		s.alphaStep(alpha)
		s.residualDots(dots)
		for c := 0; c < nb; c++ {
			beta[c] = 0
			if !active[c] {
				continue
			}
			beta[c] = dots[c] / rho[c]
			rho[c] = dots[c]
		}
		s.betaStep(beta, active)
		s.residualNorms(nrm2, nrm2d)
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

// Workspace holds the interleaved Krylov blocks and the per-column state of
// BlockBiCGDual so the hot solve loop allocates nothing: one workspace per
// worker is reused across all quadrature points. It replaces the six
// per-call vector allocations of BiCGDual.
type Workspace struct {
	n, nb int

	// Block Krylov vectors, each n*nb row-major.
	r, rd, p, pd, q, qd []complex128

	// The operands of the solve in progress.
	a, ad        BlockApply
	b, bd, x, xd []complex128

	dualRecurrence
}

// NewWorkspace allocates a workspace for blocks of n rows and nb columns.
func NewWorkspace(n, nb int) *Workspace {
	w := &Workspace{}
	w.Reserve(n, nb)
	return w
}

// Reserve grows the workspace to hold an n x nb solve; existing capacity is
// reused when sufficient, so alternating block widths does not thrash.
func (w *Workspace) Reserve(n, nb int) {
	w.n, w.nb = n, nb
	if need := n * nb; cap(w.r) < need {
		w.r = make([]complex128, need)
		w.rd = make([]complex128, need)
		w.p = make([]complex128, need)
		w.pd = make([]complex128, need)
		w.q = make([]complex128, need)
		w.qd = make([]complex128, need)
	}
	w.r, w.rd = w.r[:n*nb], w.rd[:n*nb]
	w.p, w.pd = w.p[:n*nb], w.pd[:n*nb]
	w.q, w.qd = w.q[:n*nb], w.qd[:n*nb]
	w.reserve(nb)
}

// MemoryBytes reports the workspace's resident bytes (the block-solver
// analogue of the per-worker Krylov vectors in core.MemoryEstimate).
func (w *Workspace) MemoryBytes() int64 {
	return int64(6*cap(w.r))*16 + w.memoryBytes()
}

// blockDots computes dots[c] = <x_c, y_c> for every column of two row-major
// blocks in one pass (summation order over rows matches zlinalg.Dot).
//
//cbs:hotpath
func blockDots(dots []complex128, x, y []complex128, nb int) {
	for c := range dots {
		dots[c] = 0
	}
	n := len(x) / nb
	for i := 0; i < n; i++ {
		xo := x[i*nb : i*nb+nb]
		yo := y[i*nb : i*nb+nb]
		for c := range dots {
			dots[c] += conj(xo[c]) * yo[c]
		}
	}
}

// blockNorms computes nrm[c] = ||x_c|| for every column of a row-major block.
//
//cbs:hotpath
func blockNorms(nrm []float64, x []complex128, nb int) {
	for c := range nrm {
		nrm[c] = 0
	}
	n := len(x) / nb
	for i := 0; i < n; i++ {
		xo := x[i*nb : i*nb+nb]
		for c := range nrm {
			nrm[c] += cabs2(xo[c])
		}
	}
	for c := range nrm {
		nrm[c] = math.Sqrt(nrm[c])
	}
}

// BlockBiCGDual solves the nb independent primal systems A x_c = b_c and
// their duals A^dagger xd_c = bd_c with the masked dual-BiCG recurrence
// (dualRecurrence.run) on row-major interleaved blocks: each iteration
// applies A and A^dagger once to the whole block, so the operator tables
// stream through memory once per iteration instead of once per column.
//
// b, bd, x and xd are n x nb row-major blocks; x and xd hold the initial
// guesses and are overwritten with the solutions. With opts.History set the
// residual history of column 0 is recorded. The returned slice (one Result
// per column) aliases the workspace and is valid until the next solve on
// ws; ws may be nil, in which case a fresh workspace is allocated.
func BlockBiCGDual(a, ad BlockApply, b, bd, x, xd []complex128, nb int, opts Options, groups []*GroupStop, ws *Workspace) []Result {
	if nb < 1 || len(b)%nb != 0 {
		panic("linsolve: BlockBiCGDual bad block width")
	}
	n := len(b) / nb
	if len(bd) != n*nb || len(x) != n*nb || len(xd) != n*nb {
		panic("linsolve: BlockBiCGDual length mismatch")
	}
	if groups != nil && len(groups) != nb {
		panic("linsolve: BlockBiCGDual groups length mismatch")
	}
	if ws == nil {
		ws = NewWorkspace(n, nb)
	} else {
		ws.Reserve(n, nb)
	}
	ws.a, ws.ad, ws.b, ws.bd, ws.x, ws.xd = a, ad, b, bd, x, xd
	return ws.run(ws, n, nb, opts, groups)
}

func (w *Workspace) start(nrmB, nrmBD []float64) {
	w.a(w.x, w.q, w.nb)
	w.ad(w.xd, w.qd, w.nb)
	for i := range w.r {
		w.r[i] = w.b[i] - w.q[i]
		w.rd[i] = w.bd[i] - w.qd[i]
	}
	copy(w.p, w.r)
	copy(w.pd, w.rd)
	blockNorms(nrmB, w.b, w.nb)
	blockNorms(nrmBD, w.bd, w.nb)
}

func (w *Workspace) apply() {
	w.a(w.p, w.q, w.nb)
	w.ad(w.pd, w.qd, w.nb)
}

func (w *Workspace) residualNorms(nrm, nrmD []float64) {
	blockNorms(nrm, w.r, w.nb)
	blockNorms(nrmD, w.rd, w.nb)
}

func (w *Workspace) residualDots(dots []complex128) { blockDots(dots, w.rd, w.r, w.nb) }

func (w *Workspace) directionDots(dots []complex128) { blockDots(dots, w.pd, w.q, w.nb) }

func (w *Workspace) alphaStep(alpha []complex128) {
	updateSolutions(w.x, w.xd, w.r, w.rd, w.p, w.pd, w.q, w.qd, alpha, w.n, w.nb)
}

func (w *Workspace) betaStep(beta []complex128, active []bool) {
	updateDirections(w.p, w.pd, w.r, w.rd, beta, active, w.n, w.nb)
}

// updateSolutions is the fused alpha-step of one BlockBiCGDual iteration:
// one pass over the block updates x, xd, r and rd of every still-active
// column (alpha = 0 freezes the rest, and frozen r/rd are untouched because
// alpha is exactly zero).
//
//cbs:hotpath
func updateSolutions(x, xd, r, rd, p, pd, q, qd, alpha []complex128, n, nb int) {
	for i := 0; i < n; i++ {
		o := i * nb
		for c := range alpha {
			al := alpha[c]
			if al == 0 {
				continue
			}
			alC := conj(al)
			x[o+c] += al * p[o+c]
			xd[o+c] += alC * pd[o+c]
			r[o+c] -= al * q[o+c]
			rd[o+c] -= alC * qd[o+c]
		}
	}
}

// updateDirections is the fused beta-step: p = r + beta*p and its dual,
// skipping frozen columns.
//
//cbs:hotpath
func updateDirections(p, pd, r, rd, beta []complex128, active []bool, n, nb int) {
	for i := 0; i < n; i++ {
		o := i * nb
		for c := range beta {
			if !active[c] {
				continue
			}
			p[o+c] = r[o+c] + beta[c]*p[o+c]
			pd[o+c] = rd[o+c] + conj(beta[c])*pd[o+c]
		}
	}
}
