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

	"cbs/internal/operator"
	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

// Problem is the QEP at one fixed real energy E (hartree) on the operator
// backend B that every solve path drives.
type Problem struct {
	B operator.Backend
	E float64
}

// NewBackend builds the QEP for any operator backend at energy E.
func NewBackend(b operator.Backend, e float64) *Problem {
	return &Problem{B: b, E: e}
}

// Dim returns the problem dimension N.
func (p *Problem) Dim() int { return p.B.N() }

// CellLength returns the backend's 1D lattice constant a (bohr).
func (p *Problem) CellLength() float64 { return p.B.CellLength() }

// Apply computes out = P(z) v with x's single-vector applies (x applies
// p.B), using scratch (length N).
func (p *Problem) Apply(x *operator.Vectors, z complex128, v, out, scratch []complex128) {
	if len(v) != len(out) || len(scratch) != len(out) {
		panic("qep: Apply length mismatch")
	}
	// out = (E - H0) v
	x.H0(v, out)
	for i := range out {
		out[i] = complex(p.E, 0)*v[i] - out[i]
	}
	// out -= z H+ v
	x.Hp(v, scratch)
	zlinalg.Axpy(-z, scratch, out)
	// out -= z^{-1} H- v
	x.Hm(v, scratch)
	zlinalg.Axpy(-1/z, scratch, out)
}

// ApplyDagger computes out = P(z)^dagger v = P(1/conj(z)) v.
func (p *Problem) ApplyDagger(x *operator.Vectors, z complex128, v, out, scratch []complex128) {
	p.Apply(x, 1/cmplx.Conj(z), v, out, scratch)
}

// ApplyBlock computes out = P(z) V for an n x nb block stored row-major
// as []complex128 (v[i*nb+c]): it packs V into planes, applies
// ApplyBlockSoA and unpacks the result, with the bits of the plane apply.
// It is a boundary adapter for callers holding complex vectors, not a
// solve path; every solve applies P(z) on planes.
func (p *Problem) ApplyBlock(z complex128, v, out []complex128, nb int) {
	vb, ob := soa.NewBlock[float64](p.Dim(), nb), soa.NewBlock[float64](p.Dim(), nb)
	soa.Pack(vb, v) // Pack and Unpack panic on a length mismatch
	ApplyBlockSoA(p, p.B, z, vb, ob)
	soa.Unpack(out, ob)
}

// Residual returns the relative QEP residual ||P(lambda) psi|| / ||psi||
// scaled by the block norms (a dimensionless accuracy measure).
func (p *Problem) Residual(lambda complex128, psi []complex128) float64 {
	n := p.Dim()
	out := make([]complex128, n)
	scratch := make([]complex128, n)
	p.Apply(operator.NewVectors(p.B), lambda, psi, out, scratch)
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
