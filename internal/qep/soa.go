package qep

// Split-complex (SoA) application of P(z): the planar counterpart of
// ApplyBlock/ApplyDaggerBlock. The contour coefficients -z and -1/z are the
// only complex scalars in the operator; they are split into (re, im) pairs
// at this boundary and everything below runs on float planes; the result
// is bit-identical to the AoS path.

import (
	"math/cmplx"

	"cbs/internal/hamiltonian"
	"cbs/internal/soa"
)

// ApplyBlockSoA computes out = P(z) V on split planes using the operator's
// coefficient tables.
//
//cbs:hotpath
func ApplyBlockSoA[F soa.Float](p *Problem, t *hamiltonian.SoATables[F], z complex128, v, out *soa.Block[F]) {
	t.ApplyShiftedH0Block(F(p.E), v, out)
	zp := -z
	t.AccumHpBlock(F(real(zp)), F(imag(zp)), v, out)
	zm := -1 / z
	t.AccumHmBlock(F(real(zm)), F(imag(zm)), v, out)
}

// ApplyDaggerBlockSoA computes out = P(z)^dagger V = P(1/conj(z)) V on
// split planes.
//
//cbs:hotpath
func ApplyDaggerBlockSoA[F soa.Float](p *Problem, t *hamiltonian.SoATables[F], z complex128, v, out *soa.Block[F]) {
	ApplyBlockSoA(p, t, 1/cmplx.Conj(z), v, out)
}
