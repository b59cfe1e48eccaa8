package hamiltonian

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cbs/internal/operator"
	"cbs/internal/zlinalg"
)

// The single-vector complex128 loops the plane kernels replaced, kept as
// their oracle: operator.Vectors, operator.DenseBlocks and
// operator.DenseBloch, which derive every single-vector apply and dense
// block from the plane kernels, must give each element the bits these
// loops give it (up to the sign of a zero, see sameBits).

// mulRe computes (c+0i)*z for a real coefficient c in two real multiplies.
func mulRe(c float64, z complex128) complex128 {
	return complex(c*real(z), c*imag(z))
}

// oracleH0 computes out = H0*v (overwrites out): in-cell Laplacian, local
// potential and the offset-diagonal part of the nonlocal term.
func oracleH0(op *Operator, v, out []complex128) {
	g := op.G
	nf := op.St.Nf
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	// Diagonal: kinetic center + local potential.
	for i := range out {
		out[i] = mulRe(op.diag+op.VLoc[i], v[i])
	}
	// x-direction tails (periodic wrap).
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			base := (iz*ny + iy) * nx
			row := v[base : base+nx]
			orow := out[base : base+nx]
			for d := 1; d <= nf; d++ {
				c := op.kx[d]
				xp, xm := op.xp[d-1], op.xm[d-1]
				for ix := 0; ix < nx; ix++ {
					orow[ix] += mulRe(c, row[xp[ix]]+row[xm[ix]])
				}
			}
		}
	}
	// y-direction tails (periodic wrap).
	for iz := 0; iz < nz; iz++ {
		planeBase := iz * ny * nx
		for d := 1; d <= nf; d++ {
			c := op.ky[d]
			yp, ym := op.yp[d-1], op.ym[d-1]
			for iy := 0; iy < ny; iy++ {
				base := planeBase + iy*nx
				bp := planeBase + int(yp[iy])*nx
				bm := planeBase + int(ym[iy])*nx
				for ix := 0; ix < nx; ix++ {
					out[base+ix] += mulRe(c, v[bp+ix]+v[bm+ix])
				}
			}
		}
	}
	// z-direction tails, in-cell part only (no wrap: crossing terms belong
	// to H+ and H-).
	plane := nx * ny
	for d := 1; d <= nf; d++ {
		c := op.kz[d]
		for iz := 0; iz < nz; iz++ {
			base := iz * plane
			if izp := iz + d; izp < nz {
				bp := izp * plane
				for i := 0; i < plane; i++ {
					out[base+i] += mulRe(c, v[bp+i])
				}
			}
			if izm := iz - d; izm >= 0 {
				bm := izm * plane
				for i := 0; i < plane; i++ {
					out[base+i] += mulRe(c, v[bm+i])
				}
			}
		}
	}
	// Nonlocal, offset-diagonal: sum_j p^j h <p^j, v>.
	for pi := range op.Projs {
		p := &op.Projs[pi]
		for j := 0; j < 3; j++ {
			s := &p.Supp[j]
			if len(s.Idx) == 0 {
				continue
			}
			accumProjector(out, s, complex(p.H, 0)*dotSupport(s, v))
		}
	}
}

// oracleHp computes out = H+*v = H_{n,n+1}*v (overwrites out): the Laplacian
// tails crossing the upper cell boundary plus the projector overlap
// sum_{j=-1,0} p^j h <p^{j+1}, v>.
func oracleHp(op *Operator, v, out []complex128) {
	g := op.G
	nf := op.St.Nf
	plane := g.Nx * g.Ny
	nz := g.Nz
	for i := range out {
		out[i] = 0
	}
	for d := 1; d <= nf; d++ {
		c := op.kz[d]
		// Rows with iz+d >= nz couple to plane iz+d-nz of the next cell.
		for iz := nz - d; iz < nz; iz++ {
			base := iz * plane
			bp := (iz + d - nz) * plane
			for i := 0; i < plane; i++ {
				out[base+i] += mulRe(c, v[bp+i])
			}
		}
	}
	for pi := range op.Projs {
		p := &op.Projs[pi]
		for j := -1; j <= 0; j++ {
			row := &p.Supp[j+1]
			col := &p.Supp[j+2]
			if len(row.Idx) == 0 || len(col.Idx) == 0 {
				continue
			}
			accumProjector(out, row, complex(p.H, 0)*dotSupport(col, v))
		}
	}
}

// oracleHm computes out = H-*v = H_{n,n-1}*v = (H+)^dagger * v.
func oracleHm(op *Operator, v, out []complex128) {
	g := op.G
	nf := op.St.Nf
	plane := g.Nx * g.Ny
	nz := g.Nz
	for i := range out {
		out[i] = 0
	}
	for d := 1; d <= nf; d++ {
		c := op.kz[d]
		// Rows with iz-d < 0 couple to plane iz-d+nz of the previous cell.
		for iz := 0; iz < d; iz++ {
			base := iz * plane
			bm := (iz - d + nz) * plane
			for i := 0; i < plane; i++ {
				out[base+i] += mulRe(c, v[bm+i])
			}
		}
	}
	for pi := range op.Projs {
		p := &op.Projs[pi]
		for j := 0; j <= 1; j++ {
			row := &p.Supp[j+1]
			col := &p.Supp[j]
			if len(row.Idx) == 0 || len(col.Idx) == 0 {
				continue
			}
			accumProjector(out, row, complex(p.H, 0)*dotSupport(col, v))
		}
	}
}

func dotSupport(s *Support, v []complex128) complex128 {
	var sum complex128
	for i, idx := range s.Idx {
		sum += mulRe(s.Val[i], v[idx])
	}
	return sum
}

func accumProjector(out []complex128, s *Support, coef complex128) {
	if coef == 0 {
		return
	}
	for i, idx := range s.Idx {
		out[idx] += mulRe(s.Val[i], coef)
	}
}

// oracleBloch computes out = H(lambda) v from the oracle blocks the way the
// single-vector Bloch apply always has: H0 v, then H+ v and H- v added
// through zlinalg.Axpy with lambda and 1/lambda.
func oracleBloch(op *Operator, lambda complex128, v, out, scratch []complex128) {
	oracleH0(op, v, out)
	oracleHp(op, v, scratch)
	zlinalg.Axpy(lambda, scratch, out)
	oracleHm(op, v, scratch)
	zlinalg.Axpy(1/lambda, scratch, out)
}

// sameBits fails unless got and want agree in every bit of every nonzero
// part. A zero may differ in sign: the derived H0 returns +0 for every
// zero element, where the loop returned -0 if each of its terms was -0
// (on the kernel matrix only the nf = 1 operator has such points: every
// tail coefficient is negative there, and diag + VLoc < 0 near a nucleus).
func sameBits(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a == 0 && b == 0 }
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: element %d = %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

// TestVectorsMatchOracle: on every operator of the kernel matrix and on
// this run's arm of the kernel dispatch (make test-noavx2 runs the other),
// operator.Vectors gives the oracle's bits for H0, H+, H- and H(lambda) on
// random vectors, one with signed zeros among them, and every column of
// operator.DenseBlocks and operator.DenseBloch is the oracle apply to its
// unit vector.
func TestVectorsMatchOracle(t *testing.T) {
	for _, tc := range kernelCases(t) {
		op := tc.op
		n := op.N()
		x := operator.NewVectors(op)
		got, want, scratch := make([]complex128, n), make([]complex128, n), make([]complex128, n)
		rng := rand.New(rand.NewSource(int64(n)))
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		zeros := append([]complex128(nil), v...)
		for i := range zeros {
			switch i % 3 {
			case 0:
				zeros[i] = complex(math.Copysign(0, -1), 0)
			case 1:
				zeros[i] = complex(real(zeros[i]), math.Copysign(0, -1))
			}
		}
		lambda := cmplx.Exp(complex(0.2, 0.7))
		for _, vec := range [][]complex128{v, zeros} {
			for _, k := range []struct {
				name    string
				derived func(v, out []complex128)
				oracle  func(op *Operator, v, out []complex128)
			}{
				{"H0", x.H0, oracleH0}, {"H+", x.Hp, oracleHp}, {"H-", x.Hm, oracleHm},
			} {
				k.derived(vec, got)
				k.oracle(op, vec, want)
				sameBits(t, tc.name+" "+k.name, got, want)
			}
			x.Bloch(lambda, vec, got)
			oracleBloch(op, lambda, vec, want, scratch)
			sameBits(t, tc.name+" Bloch", got, want)
		}

		h0, hp, hm := operator.DenseBlocks(op)
		hk := operator.DenseBloch(op, lambda)
		e := make([]complex128, n)
		for j := 0; j < n; j++ {
			e[j] = 1
			for _, k := range []struct {
				name   string
				dense  *zlinalg.Matrix
				oracle func(op *Operator, v, out []complex128)
			}{
				{"dense H0", h0, oracleH0}, {"dense H+", hp, oracleHp}, {"dense H-", hm, oracleHm},
				{"dense H(lambda)", hk, func(op *Operator, v, out []complex128) { oracleBloch(op, lambda, v, out, scratch) }},
			} {
				k.oracle(op, e, want)
				sameBits(t, tc.name+" "+k.name, k.dense.Col(j), want)
			}
			e[j] = 0
		}
	}
}
