// Package negf turns complex band structure into quantum transport: the
// CBS eigenpairs at one energy are exactly the lead modes of a
// non-equilibrium Green function (NEGF) device calculation. The pipeline
// is
//
//	CBS eigenpairs -> channel classification (propagating/evanescent,
//	left/right-going) -> lead surface response F± (wave matching / Ando)
//	-> retarded self-energies Sigma_L/Sigma_R -> device Green function
//	-> transmission T(E) (Caroli / Fisher-Lee) -> Landauer I-V.
//
// The wave-matching construction: with Phi_+ the matrix of right-going
// mode vectors and Lambda_+ their Bloch factors, F_+ = Phi_+ Lambda_+
// Phi_+^{-1} propagates a surface amplitude one cell into the right lead,
// and
//
//	Sigma_R = H+ F_+,   Sigma_L = H- F_-^{-1 form} (left-going, Lambda^{-1}),
//	Gamma   = i (Sigma - Sigma^dagger),
//	T(E)    = Tr[ Gamma_L G_{1,nd} Gamma_R G_{1,nd}^dagger ].
//
// The contour solver only returns modes in its annulus, so the mode basis
// is completed before inversion: the lambda -> 0 modes of the quadratic
// eigenproblem are exactly the null space of H- (and the lambda -> inf
// modes the null space of H+) — for rank-deficient coupling blocks this
// completion is exact, not an approximation. Any deep-evanescent modes a
// full-rank coupling hides below the annulus get an orthogonal-complement
// fill at lambda = 0, an O(lambda_min) approximation counted in
// Leads.NFill.
package negf

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"cbs/internal/core"
	"cbs/internal/operator"
	"cbs/internal/transport"
	"cbs/internal/zlinalg"
)

// ErrDeficientBasis is wrapped when a lead's mode basis cannot be
// completed to full rank (more annulus modes than the cell dimension, or a
// numerically singular mode matrix).
var ErrDeficientBasis = errors.New("negf: lead mode basis is deficient")

// Options tunes the NEGF construction.
type Options struct {
	// Eta is the retarded broadening added to the device energy
	// (E + i*eta); default 1e-9. The lead self-energies carry the real
	// physics of irreversibility, eta only guards isolated device
	// resonances from exact singularity.
	Eta float64
	// PropagatingTol is the ||lambda|-1| classification margin; 0 means
	// transport.DefaultPropagatingTol.
	PropagatingTol float64
}

func (o Options) eta() float64 {
	if o.Eta > 0 {
		return o.Eta
	}
	return 1e-9
}

func (o Options) tol() float64 {
	if o.PropagatingTol > 0 {
		return o.PropagatingTol
	}
	return transport.DefaultPropagatingTol
}

// Channel is one classified lead mode.
type Channel struct {
	Lambda      complex128
	K           complex128
	Psi         []complex128
	Velocity    float64 // group velocity dE/dk (bohr * hartree); 0 for evanescent
	Propagating bool
	Right       bool // carries amplitude toward +z (v > 0, or decaying |lambda| < 1)
}

// Blocks returns the dense H0, H+, H- blocks of a backend
// (operator.DenseBlocks): O(N^2) storage. Transport cells are small
// (tight-binding leads, or one FD cell), so dense assembly is the right
// tool for the wave matching and the device Green function.
func Blocks(b operator.Backend) (h0, hp, hm *zlinalg.Matrix) {
	return operator.DenseBlocks(b)
}

// lambdaGroupTol clusters propagating Bloch factors into degenerate
// subspaces: band folding puts counter-moving states on the same lambda
// (e.g. a supercell at k a = pi/2 folds e^{+-i k a nc} onto one point), and
// within such a subspace the solver's eigenvectors are arbitrary mixtures
// of left and right movers.
const lambdaGroupTol = 1e-6

// Classify separates the CBS eigenpairs of one energy into left/right-going
// propagating and evanescent channels. A mode is propagating when
// ||lambda| - 1| < tol; its direction is the sign of the group velocity
//
//	v = -2 a Im(lambda psi^dagger H+ psi),
//
// (the expectation of the current operator; equals dE/dk for Bloch
// states). Evanescent modes go right when |lambda| < 1 (decaying toward
// +z) and left otherwise.
//
// Degenerate propagating subspaces (equal lambda) are resolved the Ando
// way: the velocity operator v(k) = i a (lambda H+ - conj(lambda) H-) is
// diagonalized within the subspace, and the rotated eigenvectors — pure
// movers with definite velocity — replace the solver's arbitrary mixtures.
func Classify(b operator.Backend, r *core.Result, tol float64) []Channel {
	a := b.CellLength()
	x := operator.NewVectors(b)
	scratch := make([]complex128, b.N())
	out := make([]Channel, 0, len(r.Pairs))
	var propIdx []int
	for _, p := range r.Pairs {
		c := Channel{Lambda: p.Lambda, K: p.K, Psi: p.Psi}
		mag := cmplx.Abs(p.Lambda)
		if math.Abs(mag-1) < tol {
			c.Propagating = true
			propIdx = append(propIdx, len(out))
		} else {
			c.Right = mag < 1
		}
		out = append(out, c)
	}
	// Cluster propagating channels by lambda and resolve each group.
	for len(propIdx) > 0 {
		group := []int{propIdx[0]}
		rest := propIdx[:0]
		for _, j := range propIdx[1:] {
			if cmplx.Abs(out[j].Lambda-out[group[0]].Lambda) < lambdaGroupTol {
				group = append(group, j)
			} else {
				rest = append(rest, j)
			}
		}
		propIdx = rest
		if len(group) == 1 {
			c := &out[group[0]]
			x.Hp(c.Psi, scratch)
			c.Velocity = -2 * a * imag(c.Lambda*zlinalg.Dot(c.Psi, scratch))
			c.Right = c.Velocity > 0
			continue
		}
		resolveDegenerate(x, b.N(), a, out, group)
	}
	return out
}

// resolveDegenerate rotates a degenerate propagating subspace into
// velocity eigenstates. The subspace is first orthonormalized (the
// solver's degenerate eigenvectors need not be orthogonal), then the
// Hermitian velocity matrix V_ij = i a (lambda A_ij - conj(lambda A_ji)),
// A_ij = psi_i^dagger H+ psi_j, is diagonalized.
func resolveDegenerate(x *operator.Vectors, n int, a float64, chans []Channel, group []int) {
	m := len(group)
	span := zlinalg.NewMatrix(n, m)
	for j, gi := range group {
		span.SetCol(j, chans[gi].Psi)
	}
	q, err := zlinalg.OrthonormalizeColumns(span)
	if err != nil {
		// Dependent columns: fall back to the scalar classification.
		scalarVelocity(x, n, a, chans, group)
		return
	}
	lambda := chans[group[0]].Lambda
	hpq := zlinalg.NewMatrix(n, m)
	scratch := make([]complex128, n)
	for j := 0; j < m; j++ {
		x.Hp(q.Col(j), scratch)
		hpq.SetCol(j, scratch)
	}
	v := zlinalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		qi := q.Col(i)
		for j := 0; j < m; j++ {
			aij := zlinalg.Dot(qi, hpq.Col(j))
			aji := zlinalg.Dot(q.Col(j), hpq.Col(i))
			v.Set(i, j, complex(0, a)*(lambda*aij-cmplx.Conj(lambda*aji)))
		}
	}
	vals, vecs, err := zlinalg.EigHermitian(v)
	if err != nil {
		scalarVelocity(x, n, a, chans, group)
		return
	}
	for k, gi := range group {
		psi := make([]complex128, n)
		for i := 0; i < m; i++ {
			zlinalg.Axpy(vecs.At(i, k), q.Col(i), psi)
		}
		c := &chans[gi]
		c.Psi = psi
		c.Velocity = vals[k]
		c.Right = c.Velocity > 0
	}
}

// scalarVelocity is the non-degenerate per-mode classification.
func scalarVelocity(x *operator.Vectors, n int, a float64, chans []Channel, group []int) {
	scratch := make([]complex128, n)
	for _, gi := range group {
		c := &chans[gi]
		x.Hp(c.Psi, scratch)
		c.Velocity = -2 * a * imag(c.Lambda*zlinalg.Dot(c.Psi, scratch))
		c.Right = c.Velocity > 0
	}
}

// Leads holds the retarded lead self-energies of one energy and the
// channel bookkeeping behind them.
type Leads struct {
	SigmaL, SigmaR *zlinalg.Matrix
	GammaL, GammaR *zlinalg.Matrix // i (Sigma - Sigma^dagger)
	NOpen          int             // open (propagating) channels per direction
	NEvanescent    int             // evanescent annulus modes used
	NNull          int             // exact lambda->0 / lambda->inf completion vectors
	NFill          int             // orthogonal-complement fills (O(lambda_min) approximation)
}

// leadCell is the energy-independent half of the NEGF algebra for one lead
// crystal: its dense cell blocks and the null spaces of the couplings that
// complete the wave-matching bases. It is read-only once built, so
// TransmissionSweep builds one and shares it across energies; the exported
// per-energy functions build their own.
type leadCell struct {
	h0, hp, hm *zlinalg.Matrix
	// nullHp holds the lambda -> inf modes, null(H+); nullHm the
	// lambda -> 0 modes, null(H-). A failed SVD is kept and reported by
	// the first basis that needs it.
	nullHp, nullHm       [][]complex128
	nullHpErr, nullHmErr error
}

func newLeadCell(b operator.Backend) *leadCell {
	c := &leadCell{}
	c.h0, c.hp, c.hm = Blocks(b)
	c.nullHp, c.nullHpErr = nullSpace(c.hp)
	c.nullHm, c.nullHmErr = nullSpace(c.hm)
	return c
}

// LeadSelfEnergies builds Sigma_L and Sigma_R from one CBS result via wave
// matching. Both leads are the same periodic crystal (the backend), as in
// a two-probe junction with identical contacts.
func LeadSelfEnergies(b operator.Backend, r *core.Result, opts Options) (*Leads, error) {
	return newLeadCell(b).selfEnergies(newWorkspace(b.N()), b, r, opts)
}

// workspace holds the dense buffers of one energy's post-processing: the
// wave matching of both leads, the self-energies and broadenings it
// returns in leads, and the device elimination. Every buffer is written in
// full, or cleared, before it is read, so a workspace carries nothing from
// one energy to the next. TransmissionSweep gives each post-processing
// goroutine one and reuses it across that goroutine's energies; the
// exported LeadSelfEnergies and Transmission, whose matrices go to the
// caller, take a fresh one per call.
type workspace struct {
	leads Leads // its four matrices are owned here, overwritten per energy
	// Wave matching (surfaceSelfEnergy): the mode matrix Phi, Phi Lambda,
	// Phi^dagger, C = H Phi Lambda, C^dagger, the solve of
	// Phi^dagger Sigma^dagger = C^dagger and orthogonalFill's scratch; lam
	// holds Lambda's diagonal.
	phi, scaled, phiH, c, cH, sol, basis *zlinalg.Matrix
	lam                                  []complex128
	// Device elimination (transmission): S_c, [H- | R_c], S_c^{-1} [H- | R_c]
	// and H+ S_c^{-1} [H- | R_c]; then R_1, G_{1,nd}, its adjoint,
	// P = Gamma_L G and Q = Gamma_R G^dagger.
	s, rhs, x, w    *zlinalg.Matrix
	r1, g, gH, p, q *zlinalg.Matrix
	lu              zlinalg.LU
}

func newWorkspace(n int) *workspace {
	sq := func() *zlinalg.Matrix { return zlinalg.NewMatrix(n, n) }
	wide := func() *zlinalg.Matrix { return zlinalg.NewMatrix(n, 2*n) }
	return &workspace{
		leads: Leads{SigmaL: sq(), SigmaR: sq(), GammaL: sq(), GammaR: sq()},
		phi:   sq(), scaled: sq(), phiH: sq(), c: sq(), cH: sq(), sol: sq(), basis: sq(),
		lam: make([]complex128, 0, n),
		s:   sq(), rhs: wide(), x: wide(), w: wide(),
		r1: sq(), g: sq(), gH: sq(), p: sq(), q: sq(),
	}
}

// selfEnergies returns the leads of one energy in ws.leads.
func (c *leadCell) selfEnergies(ws *workspace, b operator.Backend, r *core.Result, opts Options) (*Leads, error) {
	chans := Classify(b, r, opts.tol())

	l := &ws.leads
	l.NOpen, l.NEvanescent, l.NNull, l.NFill = 0, 0, 0, 0
	var rightPsi, leftPsi [][]complex128
	var rightL, leftLinv []complex128
	for _, ch := range chans {
		if ch.Propagating {
			if ch.Right {
				l.NOpen++
			}
		} else {
			l.NEvanescent++
		}
		if ch.Right {
			rightPsi = append(rightPsi, ch.Psi)
			rightL = append(rightL, ch.Lambda)
		} else {
			leftPsi = append(leftPsi, ch.Psi)
			leftLinv = append(leftLinv, 1/ch.Lambda)
		}
	}

	// Right lead: complete with the exact lambda -> 0 modes (null(H-)),
	// then orthogonal fill. Sigma_R = H+ F_+ with F_+ = Phi Lambda Phi^{-1}.
	nullR, fillR, err := ws.surfaceSelfEnergy(l.SigmaR, rightPsi, rightL, c.hp, c.nullHm, c.nullHmErr)
	if err != nil {
		return nil, fmt.Errorf("right lead: %w", err)
	}
	// Left lead: lambda -> inf modes are null(H+), entering at
	// Lambda^{-1} = 0. Sigma_L = H- F_-^{-} with F_-^{-} = Phi Lambda^{-1} Phi^{-1}.
	nullL, fillL, err := ws.surfaceSelfEnergy(l.SigmaL, leftPsi, leftLinv, c.hm, c.nullHp, c.nullHpErr)
	if err != nil {
		return nil, fmt.Errorf("left lead: %w", err)
	}
	l.NNull = nullR + nullL
	l.NFill = fillR + fillL

	broadening(l.GammaL, l.SigmaL)
	broadening(l.GammaR, l.SigmaR)
	return l, nil
}

// surfaceSelfEnergy sets sigma = H Phi diag(factors) Phi^{-1} for the
// matched modes, completing the basis with nulls, the null space of the
// opposite coupling block (exact factor-0 modes), and, as a last resort,
// the orthogonal complement of the collected columns.
func (ws *workspace) surfaceSelfEnergy(sigma *zlinalg.Matrix, psis [][]complex128, factors []complex128, h *zlinalg.Matrix, nulls [][]complex128, nullErr error) (nNull, nFill int, err error) {
	n := sigma.Rows
	if len(psis) > n {
		return 0, 0, fmt.Errorf("%w: %d matched modes exceed cell dimension %d", ErrDeficientBasis, len(psis), n)
	}
	phi := ws.phi
	clear(phi.Data)
	lam := ws.lam[:0]
	col := 0
	for i, psi := range psis {
		phi.SetCol(col, psi)
		lam = append(lam, factors[i])
		col++
	}
	if col < n {
		if nullErr != nil {
			return 0, 0, nullErr
		}
		for _, v := range nulls {
			if col == n {
				break
			}
			phi.SetCol(col, v)
			lam = append(lam, 0)
			col++
			nNull++
		}
	}
	if col < n {
		nFill = orthogonalFill(phi, ws.basis, col)
		for range nFill {
			lam = append(lam, 0)
		}
		col += nFill
	}
	if col < n {
		return 0, 0, fmt.Errorf("%w: completed only %d of %d columns", ErrDeficientBasis, col, n)
	}
	// Sigma = C Phi^{-1} with C = H Phi Lambda, taken as the solve
	// Phi^dagger Sigma^dagger = C^dagger: one factorization, no inverse.
	scaled := ws.scaled
	copy(scaled.Data, phi.Data)
	for i := 0; i < n; i++ {
		row := scaled.Row(i)
		for j, lj := range lam {
			row[j] *= lj
		}
	}
	zlinalg.ConjTransposeTo(ws.phiH, phi)
	if err := ws.lu.Factor(ws.phiH); err != nil {
		return 0, 0, fmt.Errorf("%w: mode matrix is singular: %w", ErrDeficientBasis, err)
	}
	zlinalg.MulTo(ws.c, h, scaled)
	zlinalg.ConjTransposeTo(ws.cH, ws.c)
	ws.lu.SolveTo(ws.sol, ws.cH)
	zlinalg.ConjTransposeTo(sigma, ws.sol)
	return nNull, nFill, nil
}

// nullTol is the relative singular-value threshold below which a direction
// counts as null space of a coupling block.
const nullTol = 1e-10

// nullSpace returns an orthonormal basis of the (right) null space of a.
func nullSpace(a *zlinalg.Matrix) ([][]complex128, error) {
	svd, err := zlinalg.SVD(a)
	if err != nil {
		return nil, fmt.Errorf("negf: null-space SVD failed: %w", err)
	}
	rank := svd.Rank(nullTol)
	var out [][]complex128
	for j := rank; j < len(svd.S); j++ {
		out = append(out, svd.V.Col(j))
	}
	return out, nil
}

// orthogonalFill completes the first have columns of phi to a basis of
// C^n: candidate unit vectors are orthogonalized against the existing
// columns (and each other) and kept when anything survives. The kept
// vectors go into phi's next columns; it returns how many. The rows of the
// n x n basis are its scratch: the orthonormalized vectors so far, then
// the candidate under test.
func orthogonalFill(phi, basis *zlinalg.Matrix, have int) int {
	n := phi.Rows
	nb := 0
	project := func(v []complex128) {
		for k := 0; k < nb; k++ {
			b := basis.Row(k)
			zlinalg.Axpy(-zlinalg.Dot(b, v), b, v)
		}
	}
	for j := 0; j < have; j++ {
		// Orthonormalize the existing (generally non-orthogonal) columns
		// for projection purposes only.
		v := basis.Row(nb)
		for i := range v {
			v[i] = phi.At(i, j)
		}
		project(v)
		if zlinalg.Norm2(v) > 1e-12 {
			zlinalg.Normalize(v)
			nb++
		}
	}
	fills := 0
	for cand := 0; cand < n && have+fills < n; cand++ {
		v := basis.Row(nb)
		clear(v)
		v[cand] = 1
		project(v)
		if zlinalg.Norm2(v) > 1e-6 {
			zlinalg.Normalize(v)
			phi.SetCol(have+fills, v)
			nb++
			fills++
		}
	}
	return fills
}

// broadening sets gamma = i (Sigma - Sigma^dagger).
func broadening(gamma, sigma *zlinalg.Matrix) {
	zlinalg.ConjTransposeTo(gamma, sigma)
	zlinalg.SubTo(gamma, sigma, gamma)
	zlinalg.ScaleTo(gamma, complex(0, 1), gamma)
}

// Device describes the scattering region: Cells principal layers of the
// lead crystal, with an optional per-cell onsite shift (a barrier or bias
// ramp). A nil Barrier is a pristine device — the ballistic limit whose
// transmission is the integer open-channel count.
type Device struct {
	Cells   int
	Barrier []float64 // per-cell onsite shift (hartree); nil or len == Cells
}

// Validate checks the device geometry.
func (d Device) Validate() error {
	if d.Cells < 1 {
		return fmt.Errorf("negf: device needs at least 1 cell, got %d", d.Cells)
	}
	if d.Barrier != nil && len(d.Barrier) != d.Cells {
		return fmt.Errorf("negf: barrier profile has %d entries for %d cells", len(d.Barrier), d.Cells)
	}
	return nil
}

// Transmission computes the Caroli / Fisher-Lee transmission
// T(E) = Tr[Gamma_L G_{1,nd} Gamma_R G_{1,nd}^dagger] for the device at
// the result's energy, with leads described by the backend. The device
// Green function block G_{1,nd} comes from block-tridiagonal elimination
// over the cells (see leadCell.transmission); no device-sized matrix is
// formed.
func Transmission(b operator.Backend, r *core.Result, dev Device, leads *Leads, opts Options) (float64, error) {
	c := &leadCell{} // the device needs the cell blocks only
	c.h0, c.hp, c.hm = Blocks(b)
	return c.transmission(newWorkspace(b.N()), r.Energy, dev, leads, opts)
}

// transmission eliminates the device from its last cell to its first. The
// device matrix A = (E + i eta) I - H_device - Sigma is block tridiagonal
// with diagonal blocks D_c, upper blocks -H+ and lower blocks -H-, and
// G_{1,nd} is the first block of the solution X of A X = e_nd (the last
// block column of the identity). Row c of that system reads
//
//	-H- X_{c-1} + S_c X_c = R_c,   S_nd = D_nd, R_nd = I,
//
// and eliminating X_c into row c-1 gives
//
//	S_{c-1} = D_{c-1} - H+ S_c^{-1} H-,   R_{c-1} = H+ S_c^{-1} R_c,
//
// so each cell costs one n x n factorization and one solve against the
// 2n columns [H- | R_c], and G_{1,nd} = S_1^{-1} R_1. Sigma_L enters D_1
// and Sigma_R enters D_nd; a one-cell device carries both.
func (c *leadCell) transmission(ws *workspace, e float64, dev Device, leads *Leads, opts Options) (float64, error) {
	if err := dev.Validate(); err != nil {
		return 0, err
	}
	n := c.h0.Rows
	nd := dev.Cells
	z := complex(e, opts.eta())
	s := ws.s
	diag := func(cell int) { // s = D_cell
		zlinalg.ScaleTo(s, -1, c.h0)
		shift := 0.0
		if dev.Barrier != nil {
			shift = dev.Barrier[cell]
		}
		for i := 0; i < n; i++ {
			s.Set(i, i, s.At(i, i)+z-complex(shift, 0))
		}
		if cell == 0 {
			zlinalg.SubTo(s, s, leads.SigmaL)
		}
		if cell == nd-1 {
			zlinalg.SubTo(s, s, leads.SigmaR)
		}
	}
	singular := func(err error) error {
		return fmt.Errorf("negf: device Green function is singular at E = %g: %w", e, err)
	}

	diag(nd - 1)
	rhs := ws.rhs // [H- | R_c]
	clear(rhs.Data)
	for i := 0; i < n; i++ {
		copy(rhs.Row(i)[:n], c.hm.Row(i))
		rhs.Set(i, n+i, 1)
	}
	for cell := nd - 1; cell > 0; cell-- {
		if err := ws.lu.Factor(s); err != nil {
			return 0, singular(err)
		}
		ws.lu.SolveTo(ws.x, rhs)
		w := ws.w
		zlinalg.MulTo(w, c.hp, ws.x) // H+ S_c^{-1} [H- | R_c]
		diag(cell - 1)
		for i := 0; i < n; i++ {
			si, wi, ri := s.Row(i), w.Row(i), rhs.Row(i)
			for j := 0; j < n; j++ {
				si[j] -= wi[j]
			}
			copy(ri[n:], wi[n:])
		}
	}
	if err := ws.lu.Factor(s); err != nil {
		return 0, singular(err)
	}
	for i := 0; i < n; i++ {
		copy(ws.r1.Row(i), rhs.Row(i)[n:])
	}
	g := ws.g
	ws.lu.SolveTo(g, ws.r1)

	// T = Re Tr[Gamma_L G Gamma_R G^dagger] = Re sum_ij P_ij Q_ji with
	// P = Gamma_L G and Q = Gamma_R G^dagger.
	p, q := ws.p, ws.q
	zlinalg.MulTo(p, leads.GammaL, g)
	zlinalg.ConjTransposeTo(ws.gH, g)
	zlinalg.MulTo(q, leads.GammaR, ws.gH)
	var tr complex128
	for i := 0; i < n; i++ {
		for j, pij := range p.Row(i) {
			tr += pij * q.At(j, i)
		}
	}
	t := real(tr)
	if t < 0 && t > -1e-12 {
		t = 0 // clamp roundoff
	}
	return t, nil
}
