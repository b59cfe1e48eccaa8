// Package obm implements the overbridging boundary matching method
// (Fujimoto and Hirose, PRB 67, 195315 (2003)) -- the conventional
// transfer-matrix baseline the paper compares against in Fig. 4 and
// Table 1. As in the paper's description:
//
//   - the first and last Nx*Ny*Nf columns of the unit-cell Green function
//     (E - H00)^{-1} are computed with an iterative Krylov solver (the
//     paper uses CG; we use CG with a BiCG fallback on breakdown),
//   - a generalized eigenvalue problem of dimension 2*Nx*Ny*Nf is solved
//     densely (the paper uses LAPACK ZGGEV; we use the zlinalg
//     shift-invert generalized eigensolver),
//
// giving the complex Bloch factors lambda. Runtime is O(N^3)-ish and the
// dense interface blocks cost O(N*q) ~ O(N^2) memory, the scaling the
// QEP/Sakurai-Sugiura method beats by two orders of magnitude.
//
// Derivation used here: inside one cell, (E - H00) psi = B_L psi_L +
// B_R psi_R with B_L = H_{n,n-1} and B_R = H_{n,n+1} acting on the top
// (previous cell) and bottom (next cell) interface values. With the Bloch
// conditions psi_L = lambda^{-1} R_t psi, psi_R = lambda R_b psi and
// u = R_b psi, wt = lambda^{-1} R_t psi this closes into the linear pencil
//
//	[ I   -Gbl ] [u ]          [ Gbr  0 ] [u ]
//	[ 0   -Gtl ] [wt] = lambda [ Gtr -I ] [wt]
//
// where Gxy are the interface blocks of G*B_L and G*B_R.
package obm

import (
	"fmt"
	"math/cmplx"
	"time"

	"cbs/internal/hamiltonian"
	"cbs/internal/linsolve"
	"cbs/internal/operator"
	"cbs/internal/qep"
	"cbs/internal/zlinalg"
)

// Options controls the baseline.
type Options struct {
	Tol       float64 // Krylov tolerance for the Green-function columns
	MaxIter   int
	LambdaMin float64 // annulus filter for reporting (same as the SS method)
}

// DefaultOptions mirrors the paper's settings.
func DefaultOptions() Options {
	return Options{Tol: 1e-10, LambdaMin: 0.5}
}

// Eigenpair is one OBM solution.
type Eigenpair struct {
	Lambda   complex128
	K        complex128
	Residual float64 // relative QEP residual of the reconstructed cell state
	Psi      []complex128
}

// Result is the outcome of one OBM run.
type Result struct {
	Energy     float64
	Pairs      []Eigenpair // annulus eigenpairs
	AllLambdas []complex128
	Timings    Timings
	MatVecs    int
}

// Timings is the baseline's cost breakdown (Fig. 4a splits runtime into
// "matrix inversion" and "solve eigenvalue problem").
type Timings struct {
	Inversion time.Duration // Green-function columns (2q Krylov solves)
	Eigen     time.Duration // dense generalized eigenproblem
}

// Solve runs the OBM method for the Hamiltonian at energy e (hartree).
func Solve(op *hamiltonian.Operator, e float64, opts Options) (*Result, error) {
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.LambdaMin <= 0 || opts.LambdaMin >= 1 {
		opts.LambdaMin = 0.5
	}
	n := op.N()
	g := op.G
	// Interface block size: Nx*Ny*Nf in the paper; widened when projector
	// tails cross the cell boundary beyond the stencil half-width.
	q := g.PlaneSize() * op.InterfaceThickness()
	if 2*q > n {
		return nil, fmt.Errorf("obm: interface blocks (2q=%d) exceed the cell dimension %d; enlarge Nz", 2*q, n)
	}
	res := &Result{Energy: e}

	// ---- Green-function interface columns --------------------------------
	// We need X_L = G*B_L and X_R = G*B_R where G = (E - H00)^{-1}. B_L and
	// B_R map interface vectors into the cell, so each needs q solves.
	tInv := time.Now()
	h := operator.NewVectors(op)
	apply := func(v, out []complex128) {
		h.H0(v, out)
		for i := range out {
			out[i] = complex(e, 0)*v[i] - out[i]
		}
	}
	solveCol := func(b []complex128) ([]complex128, int, error) {
		x := make([]complex128, n)
		r := linsolve.CG(apply, b, x, linsolve.Options{Tol: opts.Tol, MaxIter: opts.MaxIter})
		if r.Breakdown || !r.Converged {
			// Indefinite Hermitian system: fall back to BiCG (A = A^dagger).
			for i := range x {
				x[i] = 0
			}
			r = linsolve.BiCG(apply, apply, b, x, linsolve.Options{Tol: opts.Tol, MaxIter: opts.MaxIter})
			if !r.Converged {
				return nil, r.MatVecApplied, fmt.Errorf("obm: Green-function column did not converge (residual %g)", r.Residual)
			}
		}
		return x, r.MatVecApplied, nil
	}

	// Interface selectors: bottom = first Nf planes, top = last Nf planes.
	bottomIdx := make([]int, q)
	topIdx := make([]int, q)
	for i := 0; i < q; i++ {
		bottomIdx[i] = i
		topIdx[i] = n - q + i
	}

	// Columns of B_L: B_L e_i for each interface basis vector e_i of the
	// previous cell's top planes; similarly B_R for the next cell's bottom
	// planes. Use the block applies on indicator vectors.
	ei := make([]complex128, n)
	xl := zlinalg.NewMatrix(n, q) // G * B_L
	xr := zlinalg.NewMatrix(n, q) // G * B_R
	col := make([]complex128, n)
	for i := 0; i < q; i++ {
		// B_L acts on psi_{n-1}: only its top-plane values matter.
		ei[topIdx[i]] = 1
		h.Hm(ei, col)
		ei[topIdx[i]] = 0
		x, mv, err := solveCol(col)
		if err != nil {
			return nil, err
		}
		res.MatVecs += mv
		xl.SetCol(i, x)

		// B_R acts on psi_{n+1}: only its bottom-plane values matter.
		ei[bottomIdx[i]] = 1
		h.Hp(ei, col)
		ei[bottomIdx[i]] = 0
		x, mv, err = solveCol(col)
		if err != nil {
			return nil, err
		}
		res.MatVecs += mv
		xr.SetCol(i, x)
	}
	res.Timings.Inversion = time.Since(tInv)

	// ---- dense pencil ------------------------------------------------------
	tEig := time.Now()
	gbl := restrictRows(xl, bottomIdx)
	gbr := restrictRows(xr, bottomIdx)
	gtl := restrictRows(xl, topIdx)
	gtr := restrictRows(xr, topIdx)

	two := 2 * q
	amat := zlinalg.NewMatrix(two, two)
	bmat := zlinalg.NewMatrix(two, two)
	// A = [[I, -Gbl],[0, -Gtl]]
	for i := 0; i < q; i++ {
		amat.Set(i, i, 1)
	}
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			amat.Set(i, q+j, -gbl.At(i, j))
			amat.Set(q+i, q+j, -gtl.At(i, j))
			bmat.Set(i, j, gbr.At(i, j))
			bmat.Set(q+i, j, gtr.At(i, j))
		}
	}
	// B = [[Gbr, 0],[Gtr, -I]]
	for i := 0; i < q; i++ {
		bmat.Set(q+i, q+i, -1)
	}
	gep, err := zlinalg.GeneralizedEig(amat, bmat)
	if err != nil {
		return nil, fmt.Errorf("obm: pencil eigenproblem: %w", err)
	}
	res.Timings.Eigen = time.Since(tEig)

	// ---- reconstruct and filter -------------------------------------------
	qp := qep.NewBackend(op, e)
	a := g.Lz()
	for j := range gep.Values {
		if gep.IsInf[j] {
			continue
		}
		lam := gep.Values[j]
		res.AllLambdas = append(res.AllLambdas, lam)
		mag := cmplx.Abs(lam)
		// Widened pre-filter: refinement may move an eigenvalue across the
		// annulus boundary in either direction.
		if mag <= 0.9*opts.LambdaMin || mag >= 1/(0.9*opts.LambdaMin) {
			continue
		}
		// The interface pencil inherits the decades-wide scaling of the FD
		// stencil tails, which costs the shift-invert eigensolver several
		// digits (LAPACK's QZ in the paper is backward stable on the
		// pencil). Rayleigh-quotient iteration restores full accuracy at
		// O(q^3) per annulus eigenvalue.
		vec := gep.Vectors.Col(j)
		lam, vec = refinePencilEigenpair(amat, bmat, lam, vec)
		mag = cmplx.Abs(lam)
		if mag <= opts.LambdaMin || mag >= 1/opts.LambdaMin {
			continue
		}
		// psi = X_L wt + lambda X_R u.
		u := vec[:q]
		wt := vec[q:]
		psi := make([]complex128, n)
		for c := 0; c < q; c++ {
			zlinalg.Axpy(wt[c], xl.Col(c), psi)
			zlinalg.Axpy(lam*u[c], xr.Col(c), psi)
		}
		if zlinalg.Normalize(psi) == 0 {
			continue
		}
		res.Pairs = append(res.Pairs, Eigenpair{
			Lambda:   lam,
			K:        qep.KFromLambda(lam, a),
			Residual: qp.Residual(lam, psi),
			Psi:      psi,
		})
	}
	return res, nil
}

// refinePencilEigenpair runs a few Rayleigh-quotient iterations on the
// pencil (A, B): solve (A - lam*B) y = B x, normalize, update lam from the
// generalized Rayleigh quotient. Cubically convergent; three steps take an
// O(1e-3)-accurate shift-invert estimate to machine precision.
func refinePencilEigenpair(a, b *zlinalg.Matrix, lam complex128, x []complex128) (complex128, []complex128) {
	for it := 0; it < 3; it++ {
		m := zlinalg.Sub(a, zlinalg.Scale(lam, b))
		lu, err := zlinalg.FactorLU(m)
		if err != nil {
			// lam is (numerically) an exact eigenvalue already.
			return lam, x
		}
		y := lu.SolveVec(zlinalg.MulVec(b, x))
		if zlinalg.Normalize(y) == 0 {
			return lam, x
		}
		x = y
		num := zlinalg.Dot(x, zlinalg.MulVec(a, x))
		den := zlinalg.Dot(x, zlinalg.MulVec(b, x))
		if den != 0 {
			lam = num / den
		}
	}
	return lam, x
}

// restrictRows extracts the rows idx of m as a dense block.
func restrictRows(m *zlinalg.Matrix, idx []int) *zlinalg.Matrix {
	out := zlinalg.NewMatrix(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// MemoryEstimate returns the baseline's resident bytes: the two dense
// N x q Green-function blocks plus the 2q x 2q pencil and eigenvector
// storage -- the O(N^2)-class footprint of Fig. 4(b).
func MemoryEstimate(op *hamiltonian.Operator) int64 {
	n := int64(op.N())
	q := int64(op.G.PlaneSize() * op.InterfaceThickness())
	var b int64
	b += 2 * n * q * 16             // X_L, X_R
	b += 3 * (2 * q) * (2 * q) * 16 // pencil + eigenvectors
	b += op.MemoryBytes()
	return b
}
