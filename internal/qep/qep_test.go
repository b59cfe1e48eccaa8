package qep

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/operator"
	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

func testOperator(t *testing.T) *hamiltonian.Operator {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 6, Ny: 6, Nz: 8, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func testProblem(t *testing.T) *Problem {
	t.Helper()
	return NewBackend(testOperator(t), 0.3)
}

// TestDaggerIdentity verifies the paper's halving identity P(z)^dagger =
// P(1/conj(z)) on the dense assembled operator.
func TestDaggerIdentity(t *testing.T) {
	p := testProblem(t)
	n := p.Dim()
	z := complex(1.4, 0.6)
	x := operator.NewVectors(p.B)
	dense := func(apply func(v, out, scratch []complex128)) *zlinalg.Matrix {
		m := zlinalg.NewMatrix(n, n)
		v := make([]complex128, n)
		out := make([]complex128, n)
		scratch := make([]complex128, n)
		for j := 0; j < n; j++ {
			v[j] = 1
			apply(v, out, scratch)
			m.SetCol(j, out)
			v[j] = 0
		}
		return m
	}
	pz := dense(func(v, out, s []complex128) { p.Apply(x, z, v, out, s) })
	pd := dense(func(v, out, s []complex128) { p.ApplyDagger(x, z, v, out, s) })
	if d := zlinalg.Sub(pd, pz.ConjTranspose()).MaxAbs(); d > 1e-11 {
		t.Errorf("||P(z)^dagger - P(1/conj z)|| = %g", d)
	}
}

// TestResidualZeroForEigenpair: solving P(z) x = 0 approximately via dense
// eigenpairs of the Bloch matrix gives a tiny residual.
func TestResidualConsistency(t *testing.T) {
	op := testOperator(t)
	// H(lambda) psi = E psi  <=>  P(lambda) psi = 0 for that E. Take a real
	// k, diagonalize H(k), and use one eigenpair.
	lam := cmplx.Exp(complex(0, 0.7))
	h := operator.DenseBloch(op, lam)
	vals, vecs, err := zlinalg.EigHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewBackend(op, vals[3])
	if r := p2.Residual(lam, vecs.Col(3)); r > 1e-9 {
		t.Errorf("residual of an exact eigenpair = %g", r)
	}
	// Wrong energy: residual is large.
	p3 := NewBackend(op, vals[3]+0.5)
	if r := p3.Residual(lam, vecs.Col(3)); r < 1e-3 {
		t.Errorf("residual at the wrong energy is suspiciously small: %g", r)
	}
}

// TestApplyBlockMatchesApply: the plane P(z) block apply must reproduce the
// per-column single-vector apply (primal and dagger) for nb in {1, 3, 8},
// and the complex-vector ApplyBlock adapter must return its bits.
func TestApplyBlockMatchesApply(t *testing.T) {
	p := testProblem(t)
	n := p.Dim()
	z := complex(1.7, -0.4)
	x := operator.NewVectors(p.B)
	for _, nb := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(7 + nb)))
		v := soa.NewBlock[float64](n, nb)
		for i := range v.Re {
			v.Re[i], v.Im[i] = rng.Float64()*2-1, rng.Float64()*2-1
		}
		out := soa.NewBlock[float64](n, nb)
		outD := soa.NewBlock[float64](n, nb)
		ApplyBlockSoA(p, p.B, z, v, out)
		ApplyDaggerBlockSoA(p, p.B, z, v, outD)
		col := make([]complex128, n)
		ref := make([]complex128, n)
		scratch := make([]complex128, n)
		deviation := func(got *soa.Block[float64], c int) float64 {
			var d, nrm float64
			for i := 0; i < n; i++ {
				d += cmplx.Abs(complex(got.Re[i*nb+c], got.Im[i*nb+c]) - ref[i])
				nrm += cmplx.Abs(ref[i])
			}
			return d / nrm
		}
		for c := 0; c < nb; c++ {
			for i := range col {
				col[i] = complex(v.Re[i*nb+c], v.Im[i*nb+c])
			}
			p.Apply(x, z, col, ref, scratch)
			if d := deviation(out, c); d > 1e-13 {
				t.Errorf("ApplyBlockSoA nb=%d col %d: relative deviation %g", nb, c, d)
			}
			p.ApplyDagger(x, z, col, ref, scratch)
			if d := deviation(outD, c); d > 1e-13 {
				t.Errorf("ApplyDaggerBlockSoA nb=%d col %d: relative deviation %g", nb, c, d)
			}
		}

		vi, oi := make([]complex128, n*nb), make([]complex128, n*nb)
		soa.Unpack(vi, v)
		p.ApplyBlock(z, vi, oi, nb)
		for i, e := range oi {
			if e != complex(out.Re[i], out.Im[i]) {
				t.Fatalf("ApplyBlock nb=%d element %d: %v, planes %v", nb, i, e, complex(out.Re[i], out.Im[i]))
			}
		}
	}
}

func TestKLambdaRoundTrip(t *testing.T) {
	a := 7.3
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := complex(r.Float64()*2*math.Pi/a-math.Pi/a, r.Float64()*0.4-0.2)
		lam := LambdaFromK(k, a)
		back := KFromLambda(lam, a)
		return cmplx.Abs(back-k) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKFromLambdaFoldsToBZ(t *testing.T) {
	a := 5.0
	// lambda from k outside the first BZ folds back in.
	k := complex(1.7*math.Pi/a, 0.1)
	lam := LambdaFromK(k, a)
	folded := KFromLambda(lam, a)
	if re := real(folded); re <= -math.Pi/a || re > math.Pi/a+1e-12 {
		t.Errorf("Re k = %g not in (-pi/a, pi/a]", re)
	}
	// The imaginary part (decay constant) survives folding.
	if math.Abs(imag(folded)-0.1) > 1e-12 {
		t.Errorf("Im k = %g, want 0.1", imag(folded))
	}
}

func TestPropagatingMagnitude(t *testing.T) {
	a := 4.0
	lam := LambdaFromK(complex(0.3, 0), a)
	if math.Abs(cmplx.Abs(lam)-1) > 1e-14 {
		t.Error("real k must give |lambda| = 1")
	}
	dec := LambdaFromK(complex(0.3, 0.2), a) // Im k > 0: decaying
	if cmplx.Abs(dec) >= 1 {
		t.Errorf("|lambda| = %g for a decaying state, want < 1", cmplx.Abs(dec))
	}
}

func TestResidualZeroVector(t *testing.T) {
	p := testProblem(t)
	if r := p.Residual(1, make([]complex128, p.Dim())); !math.IsInf(r, 1) {
		t.Errorf("residual of zero vector = %g, want +Inf", r)
	}
}
