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
// iteration splits the scalars once into plane-typed per-column coefficient
// arrays (alpha and beta with their conjugate and negated parts) and lane
// masks, which is all the soa column-lane kernels need to run the updates
// with one vector lane per column. One workspace per worker is reused
// across all quadrature points; the steady-state solve allocates nothing.
type WorkspaceSoA[F soa.Float] struct {
	n, nb int

	r, rd, p, pd, q, qd *soa.Block[F]

	// The operands of the solve in progress.
	a, ad        BlockApplySoA[F]
	b, bd, x, xd *soa.Block[F]
	reduce       Reduce // nil: this workspace holds every row

	coRe, coIm   []F          // alpha or beta split per column
	negRe, negIm []F          // the same parts negated
	dRe, dIm     []F          // column-dot accumulators
	live         []uint64     // lane masks: all-ones = update the column
	sums         []complex128 // one reduction step's per-column sums

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
	if cap(w.live) < nb {
		co := make([]F, 6*nb) // one backing array for the six per-column planes
		w.coRe, w.coIm = co[0*nb:1*nb:1*nb], co[1*nb:2*nb:2*nb]
		w.negRe, w.negIm = co[2*nb:3*nb:3*nb], co[3*nb:4*nb:4*nb]
		w.dRe, w.dIm = co[4*nb:5*nb:5*nb], co[5*nb:6*nb:6*nb]
		w.live = make([]uint64, nb)
		w.sums = make([]complex128, 3*nb)
	}
	w.reserve(nb)
}

// MemoryBytes reports the workspace's resident bytes: the six Krylov blocks,
// the per-column recurrence state and, per column, the six coefficient/dot
// planes, the lane mask and the three reduction sums.
func (w *WorkspaceSoA[F]) MemoryBytes() int64 {
	return w.r.MemoryBytes()*6 + w.memoryBytes() + int64(cap(w.live))*(6*8+8+3*16)
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

// colDots computes the conjugated column dots <x_c, y_c> into sums.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) colDots(sums []complex128, x, y *soa.Block[F]) {
	dRe, dIm := w.dRe[:w.nb], w.dIm[:w.nb]
	soa.DotCols(dRe, dIm, x, y)
	for c := range sums {
		sums[c] = complex(float64(dRe[c]), float64(dIm[c]))
	}
}

// colNorms2 packs the squared column norms of x and y as (|x_c|^2, |y_c|^2):
// the real part of <x_c, x_c> is the row-ordered sum of re*re + im*im.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) colNorms2(sums []complex128, x, y *soa.Block[F]) {
	dRe, dIm := w.dRe[:w.nb], w.dIm[:w.nb]
	soa.DotCols(dRe, dIm, x, x)
	for c := range sums {
		sums[c] = complex(float64(dRe[c]), 0)
	}
	soa.DotCols(dRe, dIm, y, y)
	for c := range sums {
		sums[c] = complex(real(sums[c]), float64(dRe[c]))
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

// start binds r = b - A x, rd = bd - A^dagger xd, p = r, pd = rd, and
// returns the column norms of b and bd.
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
	sums := w.sums[:w.nb]
	w.colNorms2(sums, w.b, w.bd)
	if err := w.complete(sums); err != nil {
		return err
	}
	unpackNorms(nrmB, nrmBD, sums)
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
	w.colDots(sums, w.pd, w.q)
	if err := w.complete(sums); err != nil {
		return err
	}
	copy(dots, sums)
	return nil
}

// residuals computes dots[c] = <rd_c, r_c>, nrm[c] = ||r_c||,
// nrmD[c] = ||rd_c|| and completes the group-stop polls in stop, all in one
// reduction.
func (w *WorkspaceSoA[F]) residuals(dots []complex128, nrm, nrmD []float64, stop []bool) error {
	nb := w.nb
	sums := w.sums[:3*nb]
	w.colDots(sums[:nb], w.rd, w.r)
	w.colNorms2(sums[nb:2*nb], w.r, w.rd)
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

// alphaStep is x += alpha*p, xd += conj(alpha)*pd, r -= alpha*q,
// rd -= conj(alpha)*qd, each one masked column-lane pass with the
// conjugation and the subtraction folded into the coefficient's signs
// (exact; see the soa column-lane kernels), so every element sees the
// multiplies and adds of the per-column BiCGDual update in the same order.
// alpha = 0 freezes a column: its lane is masked off and nothing is stored
// to it.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) alphaStep(alpha []complex128) {
	re, im, negRe, negIm, live := w.splitCoefs(alpha)
	for c, al := range alpha {
		live[c] = lane(al != 0)
	}
	soa.AxpyCols(w.x, w.p, re, im, live)
	soa.AxpyCols(w.xd, w.pd, re, negIm, live)
	soa.AxpyCols(w.r, w.q, negRe, negIm, live)
	soa.AxpyCols(w.rd, w.qd, negRe, im, live)
}

// betaStep is p = r + beta*p and its dual with conj(beta), frozen columns
// masked off.
//
//cbs:hotpath
func (w *WorkspaceSoA[F]) betaStep(beta []complex128, active []bool) {
	re, im, _, negIm, live := w.splitCoefs(beta)
	for c, on := range active {
		live[c] = lane(on)
	}
	soa.XpayCols(w.p, w.r, re, im, live)
	soa.XpayCols(w.pd, w.rd, re, negIm, live)
}
