// Package qep represents the paper's quadratic eigenvalue problem
//
//	P(lambda) |psi> = [ -lambda^{-1} H- + (E - H0) - lambda H+ ] |psi> = 0
//
// as a matrix-free operator, together with its dual P(z)^dagger. The key
// structural identity exploited for the ring contour (paper Sec. 3.2) is
//
//	P(z)^dagger = P(1 / conj(z)),
//
// which holds because H- = H+^dagger, H0 = H0^dagger and E is real.
package qep

import (
	"math"
	"math/cmplx"

	"cbs/internal/hamiltonian"
	"cbs/internal/operator"
	"cbs/internal/zlinalg"
)

// Problem is the QEP at one fixed real energy E (hartree) on the operator
// backend B that every solve path drives.
type Problem struct {
	B operator.Backend
	E float64
}

// New builds the QEP for the FD-grid Hamiltonian at energy E.
func New(op *hamiltonian.Operator, e float64) *Problem {
	return &Problem{B: op, E: e}
}

// NewBackend builds the QEP for any operator backend at energy E.
func NewBackend(b operator.Backend, e float64) *Problem {
	return &Problem{B: b, E: e}
}

// Dim returns the problem dimension N.
func (p *Problem) Dim() int { return p.B.N() }

// CellLength returns the backend's 1D lattice constant a (bohr).
func (p *Problem) CellLength() float64 { return p.B.CellLength() }

// Apply computes out = P(z) v, using scratch (length N).
func (p *Problem) Apply(z complex128, v, out, scratch []complex128) {
	if len(v) != len(out) || len(scratch) != len(out) {
		panic("qep: Apply length mismatch")
	}
	// out = (E - H0) v
	p.B.ApplyH0(v, out)
	for i := range out {
		out[i] = complex(p.E, 0)*v[i] - out[i]
	}
	// out -= z H+ v
	p.B.ApplyHp(v, scratch)
	zlinalg.Axpy(-z, scratch, out)
	// out -= z^{-1} H- v
	p.B.ApplyHm(v, scratch)
	zlinalg.Axpy(-1/z, scratch, out)
}

// ApplyDagger computes out = P(z)^dagger v = P(1/conj(z)) v.
func (p *Problem) ApplyDagger(z complex128, v, out, scratch []complex128) {
	p.Apply(1/cmplx.Conj(z), v, out, scratch)
}

// ApplyBlock computes out = P(z) V for an n x nb block stored row-major by
// grid point (hamiltonian block layout). Unlike the single-vector Apply,
// which makes three full-length passes ((E-H0)v, then two scratch+Axpy
// passes for the z*H+ and z^{-1}*H- terms), the blocked path computes
// (E - H0)V in one fused stencil sweep and folds the contour shift into the
// boundary-only accumulate kernels: O(surface) extra work and no scratch
// buffer at all.
//
//cbs:hotpath
func (p *Problem) ApplyBlock(z complex128, v, out []complex128, nb int) {
	p.B.ApplyShiftedH0Block(p.E, v, out, nb)
	p.B.AccumHpBlock(-z, v, out, nb)
	p.B.AccumHmBlock(-1/z, v, out, nb)
}

// ApplyDaggerBlock computes out = P(z)^dagger V = P(1/conj(z)) V on a
// row-major block.
//
//cbs:hotpath
func (p *Problem) ApplyDaggerBlock(z complex128, v, out []complex128, nb int) {
	p.ApplyBlock(1/cmplx.Conj(z), v, out, nb)
}

// Residual returns the relative QEP residual ||P(lambda) psi|| / ||psi||
// scaled by the block norms (a dimensionless accuracy measure).
func (p *Problem) Residual(lambda complex128, psi []complex128) float64 {
	n := p.Dim()
	out := make([]complex128, n)
	scratch := make([]complex128, n)
	p.Apply(lambda, psi, out, scratch)
	den := zlinalg.Norm2(psi)
	if den == 0 {
		return math.Inf(1)
	}
	return zlinalg.Norm2(out) / den
}

// KFromLambda converts a Bloch factor lambda = exp(i k a) to the complex
// wave vector k (1/bohr) given the cell length a (bohr). The real part is
// folded into the first Brillouin zone (-pi/a, pi/a].
func KFromLambda(lambda complex128, a float64) complex128 {
	lg := cmplx.Log(lambda) // i k a = log lambda
	k := lg / complex(0, a)
	re, im := real(k), imag(k)
	bz := math.Pi / a
	for re > bz {
		re -= 2 * bz
	}
	for re <= -bz {
		re += 2 * bz
	}
	return complex(re, im)
}

// LambdaFromK is the inverse map: lambda = exp(i k a).
func LambdaFromK(k complex128, a float64) complex128 {
	return cmplx.Exp(complex(0, 1) * k * complex(a, 0))
}
