package linsolve

import (
	"math"

	"cbs/internal/soa"
)

// BlockApplySoA computes out = A*V on split-complex planes (block shape
// carried by the soa.Block).
type BlockApplySoA[F soa.Float] func(v, out *soa.Block[F])

// Reduce completes one reduction step of a domain-decomposed block solve:
// sums holds this rank's per-column partial sums on entry and must hold the
// global sums, bit-identical on every rank, on return. An error ends the
// solve at that step; the reduction must then fail on every rank alike (a
// closed world, a canceled context), so no rank is left in a collective.
type Reduce func(sums []complex128) error

// WorkspaceSoA holds the Krylov blocks of the block solver as split-complex
// planes and the per-column recurrence scalars as complex128. Each
// iteration splits alpha and beta into plane-typed soa.ColCoefs (the
// parts and the lane masks), which is all the soa column-lane kernels need
// to run the updates with one vector lane per column: three passes over the blocks per iteration, <pd, q>, the residual
// update fused with the residual sums, and the solution update fused with
// the direction update. One workspace per worker is reused across all
// quadrature points; the steady-state solve allocates nothing.
type WorkspaceSoA[F soa.Float] struct {
	n, nb int

	r, rd, p, pd, q, qd *soa.Block[F]

	// The operands of the solve in progress.
	a, ad        BlockApplySoA[F]
	b, bd, x, xd *soa.Block[F]
	reduce       Reduce // nil: this workspace holds every row

	alphaCo, betaCo soa.ColCoef[F] // alpha and beta split per column
	dRe, dIm        []F            // column-dot accumulators
	n2, n2d         []F            // squared-norm accumulators of r and rd
	sums            []complex128   // one reduction step's per-column sums

	dualRecurrence
}

// NewWorkspaceSoA allocates a split-complex workspace for n x nb solves.
func NewWorkspaceSoA[F soa.Float](n, nb int) *WorkspaceSoA[F] {
	w := &WorkspaceSoA[F]{}
	w.Reserve(n, nb)
	return w
}

// Reserve grows the workspace to hold an n x nb solve, reusing capacity, so
// alternating block widths does not thrash.
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
	if cap(w.sums) < 3*nb {
		co := make([]F, 8*nb) // one backing array for the eight per-column planes
		part := func(i int) []F { return co[i*nb : (i+1)*nb : (i+1)*nb] }
		w.alphaCo = soa.ColCoef[F]{Re: part(0), Im: part(1)}
		w.betaCo = soa.ColCoef[F]{Re: part(2), Im: part(3)}
		w.dRe, w.dIm, w.n2, w.n2d = part(4), part(5), part(6), part(7)
		masks := make([]uint64, 2*nb)
		w.alphaCo.Mask, w.betaCo.Mask = masks[:nb:nb], masks[nb:]
		w.sums = make([]complex128, 3*nb)
	}
	w.reserve(nb)
}

// MemoryBytes reports the workspace's resident bytes: the six Krylov blocks,
// the per-column recurrence state and, per column, the eight coefficient,
// dot and norm planes, the two lane masks and the three reduction sums.
func (w *WorkspaceSoA[F]) MemoryBytes() int64 {
	return w.r.MemoryBytes()*6 + w.memoryBytes() + int64(cap(w.alphaCo.Mask))*(8*8+2*8+3*16)
}

// BlockBiCGDualSoA solves the nb independent primal systems A x_c = b_c and
// their duals A^dagger xd_c = bd_c with the masked dual-BiCG recurrence
// (WorkspaceSoA.run) on split-complex planes: each iteration applies A and
// A^dagger once to the whole block, so the operator tables stream through
// memory once per iteration instead of once per column. Every column's
// solution bits, residuals and iteration counts are those of a per-column
// BiCGDual.
//
// x and xd hold the initial guesses and are overwritten with the solutions.
// With opts.History set the residual history of column 0 is recorded. The
// returned slice (one Result per column) aliases the workspace and is valid
// until the next solve on ws; ws may be nil.
func BlockBiCGDualSoA[F soa.Float](a, ad BlockApplySoA[F], b, bd, x, xd *soa.Block[F], opts Options, groups []*GroupStop, ws *WorkspaceSoA[F]) []Result {
	if ws == nil {
		ws = NewWorkspaceSoA[F](b.N(), b.NB())
	}
	rs, _ := ws.SolveRank(a, ad, b, bd, x, xd, b.N(), opts, groups, nil) // no reduction, no error
	return rs
}

// SolveRank is BlockBiCGDualSoA on one rank's rows of a domain-decomposed
// block solve of global dimension n: a and ad apply the operator to the
// rank's rows (exchanging halos as they must), and reduce completes every
// column dot and norm across the ranks, so each rank takes the steps of the
// undivided solve. Only the rank that holds groups polls and marks them. A
// nil reduce is the undivided solve. The first reduction error is returned
// with the results so far.
func (w *WorkspaceSoA[F]) SolveRank(a, ad BlockApplySoA[F], b, bd, x, xd *soa.Block[F], n int, opts Options, groups []*GroupStop, reduce Reduce) ([]Result, error) {
	rows, nb := b.N(), b.NB()
	if bd.N() != rows || bd.NB() != nb || x.N() != rows || x.NB() != nb || xd.N() != rows || xd.NB() != nb {
		panic("linsolve: BlockBiCGDualSoA shape mismatch")
	}
	if groups != nil && len(groups) != nb {
		panic("linsolve: BlockBiCGDualSoA groups length mismatch")
	}
	w.Reserve(rows, nb)
	w.a, w.ad, w.b, w.bd, w.x, w.xd, w.reduce = a, ad, b, bd, x, xd, reduce
	return w.run(n, nb, opts, groups)
}

// complete reduces sums across the ranks when the solve is divided.
func (w *WorkspaceSoA[F]) complete(sums []complex128) error {
	if w.reduce == nil {
		return nil
	}
	return w.reduce(sums)
}

// krylov binds the workspace's blocks and the solve's x, xd for the soa
// column-lane kernels.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) krylov() soa.Krylov[F] {
	return soa.Krylov[F]{X: w.x, XD: w.xd, R: w.r, RD: w.rd, P: w.p, PD: w.pd, Q: w.q, QD: w.qd}
}

// packDots packs the column dots in dRe, dIm into sums.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) packDots(sums []complex128) {
	dRe, dIm := w.dRe[:len(sums)], w.dIm[:len(sums)]
	for c := range sums {
		sums[c] = complex(float64(dRe[c]), float64(dIm[c]))
	}
}

// packNorms2 packs squared column norms as (|x_c|^2, |y_c|^2).
//
//cbs:hotpath
func packNorms2[F soa.Float](sums []complex128, nx, ny []F) {
	nx, ny = nx[:len(sums)], ny[:len(sums)]
	for c := range sums {
		sums[c] = complex(float64(nx[c]), float64(ny[c]))
	}
}

// unpackNorms takes the square roots of packed squared norms.
//
//cbs:hotpath
func unpackNorms(nrm, nrmD []float64, sums []complex128) {
	for c, s := range sums {
		nrm[c] = math.Sqrt(real(s))
		nrmD[c] = math.Sqrt(imag(s))
	}
}

// start binds r = b - A x, rd = bd - A^dagger xd, p = r, pd = rd, returns
// the column norms of b and bd, and leaves the local residual sums of r and
// rd in dRe, dIm, n2, n2d: an AlphaCols pass with every lane off, the same
// source as on every later iteration.
func (w *WorkspaceSoA[F]) start(nrmB, nrmBD []float64) error {
	w.a(w.x, w.q)
	w.ad(w.xd, w.qd)
	subPlanes(w.r.Re, w.b.Re, w.q.Re)
	subPlanes(w.r.Im, w.b.Im, w.q.Im)
	subPlanes(w.rd.Re, w.bd.Re, w.qd.Re)
	subPlanes(w.rd.Im, w.bd.Im, w.qd.Im)
	copy(w.p.Re, w.r.Re)
	copy(w.p.Im, w.r.Im)
	copy(w.pd.Re, w.rd.Re)
	copy(w.pd.Im, w.rd.Im)
	nb := w.nb
	sums := w.sums[:nb]
	soa.DotCols(w.n2[:nb], w.dIm[:nb], w.b, w.b)
	soa.DotCols(w.n2d[:nb], w.dIm[:nb], w.bd, w.bd)
	packNorms2(sums, w.n2, w.n2d)
	if err := w.complete(sums); err != nil {
		return err
	}
	unpackNorms(nrmB, nrmBD, sums)
	co := &w.alphaCo
	co.Re, co.Im, co.Mask = co.Re[:nb], co.Im[:nb], co.Mask[:nb]
	for c := range co.Mask {
		co.Mask[c] = 0
	}
	k := w.krylov()
	soa.AlphaCols(&k, co, w.dRe[:nb], w.dIm[:nb], w.n2[:nb], w.n2d[:nb])
	return nil
}

// apply computes q = A p, qd = A^dagger pd.
func (w *WorkspaceSoA[F]) apply() {
	w.a(w.p, w.q)
	w.ad(w.pd, w.qd)
}

// directionDots computes dots[c] = <pd_c, q_c>.
func (w *WorkspaceSoA[F]) directionDots(dots []complex128) error {
	sums := w.sums[:w.nb]
	soa.DotCols(w.dRe[:w.nb], w.dIm[:w.nb], w.pd, w.q)
	w.packDots(sums)
	if err := w.complete(sums); err != nil {
		return err
	}
	copy(dots, sums)
	return nil
}

// residuals completes the local residual sums left by start or alphaStep
// into dots[c] = <rd_c, r_c>, nrm[c] = ||r_c||, nrmD[c] = ||rd_c|| and the
// group-stop polls in stop, all in one reduction.
func (w *WorkspaceSoA[F]) residuals(dots []complex128, nrm, nrmD []float64, stop []bool) error {
	nb := w.nb
	sums := w.sums[:3*nb]
	w.packDots(sums[:nb])
	packNorms2(sums[nb:2*nb], w.n2, w.n2d)
	for c, s := range stop {
		sums[2*nb+c] = 0
		if s {
			sums[2*nb+c] = 1
		}
	}
	if err := w.complete(sums); err != nil {
		return err
	}
	copy(dots, sums[:nb])
	unpackNorms(nrm, nrmD, sums[nb:2*nb])
	for c := range stop {
		stop[c] = sums[2*nb+c] != 0
	}
	return nil
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

// split splits the per-column scalars z into co's (re, im) parts, once
// per update step, and sizes co's mask to match.
//
//cbs:hotpath
func split[F soa.Float](co *soa.ColCoef[F], z []complex128) *soa.ColCoef[F] {
	nb := len(z)
	co.Re, co.Im, co.Mask = co.Re[:nb], co.Im[:nb], co.Mask[:nb]
	for c, v := range z {
		co.Re[c], co.Im[c] = F(real(v)), F(imag(v))
	}
	return co
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

// alphaStep is the residual half of the alpha step, r -= alpha*q and
// rd -= conj(alpha)*qd, in one masked column-lane pass that also leaves the
// local sums of <rd, r>, ||r||^2 and ||rd||^2 for residuals. The kernels
// fold the conjugation and the subtraction into the coefficient's signs
// (exact; see the soa column-lane kernels), so every element sees the
// multiplies and adds of the per-column BiCGDual update in the same order.
// The split alpha is kept for the solution half, x += alpha*p and
// xd += conj(alpha)*pd, which betaStep or finishAlpha runs. alpha = 0
// freezes a column: its lane is masked off and nothing is stored to it.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) alphaStep(alpha []complex128) {
	co := split(&w.alphaCo, alpha)
	for c, al := range alpha {
		co.Mask[c] = lane(al != 0)
	}
	k := w.krylov()
	nb := len(alpha)
	soa.AlphaCols(&k, co, w.dRe[:nb], w.dIm[:nb], w.n2[:nb], w.n2d[:nb])
}

// betaStep ends the iteration in one pass: the solution half of the alpha
// step, then p = r + beta*p and its dual with conj(beta), frozen columns
// masked off.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) betaStep(beta []complex128, active []bool) {
	co := split(&w.betaCo, beta)
	for c, on := range active {
		co.Mask[c] = lane(on)
	}
	k := w.krylov()
	soa.BetaCols(&k, &w.alphaCo, co)
}

// finishAlpha runs the solution half of the alpha step alone, a beta pass
// with every direction lane off, so x and xd hold the iteration's update
// when the solve ends between alphaStep and betaStep.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) finishAlpha() {
	co := split(&w.betaCo, w.beta[:w.nb])
	for c := range co.Mask {
		co.Mask[c] = 0
	}
	k := w.krylov()
	soa.BetaCols(&k, &w.alphaCo, co)
}
