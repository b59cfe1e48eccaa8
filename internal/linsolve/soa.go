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

	// The operands of the solve in progress.
	a, ad        BlockApplySoA[F]
	b, bd, x, xd *soa.Block[F]

	coRe, coIm   []F      // alpha or beta split per column
	negRe, negIm []F      // the same parts negated
	dRe, dIm     []F      // column-dot accumulators
	live         []uint64 // lane masks: all-ones = update the column

	dualRecurrence
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
	if cap(w.live) < nb {
		co := make([]F, 6*nb) // one backing array for the six per-column planes
		w.coRe, w.coIm = co[0*nb:1*nb:1*nb], co[1*nb:2*nb:2*nb]
		w.negRe, w.negIm = co[2*nb:3*nb:3*nb], co[3*nb:4*nb:4*nb]
		w.dRe, w.dIm = co[4*nb:5*nb:5*nb], co[5*nb:6*nb:6*nb]
		w.live = make([]uint64, nb)
	}
	w.reserve(nb)
}

// MemoryBytes reports the workspace's resident bytes: the six Krylov blocks,
// the per-column recurrence state and, per column, the six coefficient/dot
// planes and the lane mask.
func (w *WorkspaceSoA[F]) MemoryBytes() int64 {
	return w.r.MemoryBytes()*6 + w.memoryBytes() + int64(cap(w.live))*(6*8+8)
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
// recurrence (dualRecurrence.run) with the block vectors stored as
// soa.Block planes. Every result (solution bits, residuals, iteration
// counts) is identical to the interleaved solver. The returned slice
// aliases the workspace; ws may be nil.
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
	if ws == nil {
		ws = NewWorkspaceSoA[F](n, nb)
	} else {
		ws.Reserve(n, nb)
	}
	ws.a, ws.ad, ws.b, ws.bd, ws.x, ws.xd = a, ad, b, bd, x, xd
	return ws.run(ws, n, nb, opts, groups)
}

func (w *WorkspaceSoA[F]) start(nrmB, nrmBD []float64) {
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
	w.blockNormsSoA(nrmB, w.b)
	w.blockNormsSoA(nrmBD, w.bd)
}

func (w *WorkspaceSoA[F]) apply() {
	w.a(w.p, w.q)
	w.ad(w.pd, w.qd)
}

func (w *WorkspaceSoA[F]) residualNorms(nrm, nrmD []float64) {
	w.blockNormsSoA(nrm, w.r)
	w.blockNormsSoA(nrmD, w.rd)
}

func (w *WorkspaceSoA[F]) residualDots(dots []complex128) { w.blockDotsSoA(dots, w.rd, w.r) }

func (w *WorkspaceSoA[F]) directionDots(dots []complex128) { w.blockDotsSoA(dots, w.pd, w.q) }

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

// alphaStep is the alpha-step on split planes: x += alpha*p,
// xd += conj(alpha)*pd, r -= alpha*q, rd -= conj(alpha)*qd, each one masked
// column-lane pass with the conjugation and the subtraction folded into the
// coefficient's signs (exact; see the soa column-lane kernels). Per element
// the multiplies and adds are those of updateSolutions in the same order,
// so the iterates are bit-identical. alpha = 0 freezes a column exactly as
// in the AoS path: its lane is masked off and nothing is stored to it.
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

// betaStep is the beta-step on split planes: p = r + beta*p and
// its dual with conj(beta), frozen columns masked off.
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
