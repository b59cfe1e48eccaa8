package qep

// Split-complex (SoA) application of P(z) on any backend's plane method
// set: the one block apply every solve runs. The contour coefficients -z
// and -1/z are the only complex scalars in the operator; they are split
// into (re, im) pairs at this boundary and everything below runs on float
// planes.

import (
	"math/cmplx"

	"cbs/internal/operator"
	"cbs/internal/soa"
)

// ApplyBlockSoA computes out = P(z) V on split planes with t's applies
// (normally p.B itself).
//
//cbs:hotpath
func ApplyBlockSoA(p *Problem, t operator.Planes, z complex128, v, out *soa.Block[float64]) {
	t.ApplyShiftedH0Planes(p.E, v, out)
	zp := -z
	t.AccumHpPlanes(real(zp), imag(zp), v, out)
	zm := -1 / z
	t.AccumHmPlanes(real(zm), imag(zm), v, out)
}

// ApplyDaggerBlockSoA computes out = P(z)^dagger V = P(1/conj(z)) V on
// split planes.
//
//cbs:hotpath
func ApplyDaggerBlockSoA(p *Problem, t operator.Planes, z complex128, v, out *soa.Block[float64]) {
	ApplyBlockSoA(p, t, 1/cmplx.Conj(z), v, out)
}
