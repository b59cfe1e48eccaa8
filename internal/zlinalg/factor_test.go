package zlinalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randMatrix(rng, n, n)
		b := randMatrix(rng, n, 3)
		f, err := FactorLU(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := f.Solve(b)
		res := Sub(Mul(a, x), b).MaxAbs()
		if res > 1e-10 {
			t.Errorf("n=%d: LU solve residual %g", n, res)
		}
	}
}

// TestLUSolveBitsMatchSolveVec pins the row-oriented multi-column Solve,
// whose updates run through the soa row kernels, to SolveVec's scalar
// loops column by column: the IEEE bits of both parts of every entry, so a
// swapped signed zero fails too, on matrices with zero entries.
func TestLUSolveBitsMatchSolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 17, 56} {
		a := randMatrix(rng, n, n)
		for i := range a.Data {
			if rng.Intn(4) == 0 {
				a.Data[i] = 0
			}
		}
		b := randMatrix(rng, n, 2*n+1)
		f, err := FactorLU(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := f.Solve(b)
		for j := 0; j < b.Cols; j++ {
			want := f.SolveVec(b.Col(j))
			for i, w := range want {
				got := x.At(i, j)
				if math.Float64bits(real(got)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(got)) != math.Float64bits(imag(w)) {
					t.Fatalf("n=%d: X[%d][%d] = %v, SolveVec gives %v", n, i, j, got, w)
				}
			}
		}
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 8, 8)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := f.Inverse()
	if d := Sub(Mul(a, inv), Identity(8)).MaxAbs(); d > 1e-11 {
		t.Errorf("||A A^-1 - I|| = %g", d)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]complex128{
		{1, 2},
		{2, 4},
	})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected ErrSingular for a rank-1 matrix")
	}
}

func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		a := randMatrix(r, n, n)
		xTrue := randMatrix(r, n, 1).Col(0)
		b := MulVec(a, xTrue)
		lu, err := FactorLU(a)
		if err != nil {
			return true // random singular matrix: vanishingly unlikely, skip
		}
		x := lu.SolveVec(b)
		for i := range x {
			if cmplx.Abs(x[i]-xTrue[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][2]int{{4, 4}, {8, 5}, {20, 20}, {30, 7}} {
		a := randMatrix(rng, dims[0], dims[1])
		f, err := FactorQR(a)
		if err != nil {
			t.Fatal(err)
		}
		q := f.Q()
		r := f.R()
		checkUnitary(t, "QR Q", q, 1e-12)
		if d := Sub(Mul(q, r), a).MaxAbs(); d > 1e-12 {
			t.Errorf("%v: ||QR - A|| = %g", dims, d)
		}
		// R upper triangular.
		for i := 1; i < r.Rows; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Errorf("R(%d,%d) = %v, want 0", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestQRLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMatrix(rng, 12, 5)
	xTrue := randMatrix(rng, 5, 1).Col(0)
	b := MulVec(a, xTrue)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Fatalf("least squares recovered %v, want %v", x[i], xTrue[i])
		}
	}
}

func TestOrthonormalizeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMatrix(rng, 10, 4)
	q, err := OrthonormalizeColumns(a)
	if err != nil {
		t.Fatal(err)
	}
	checkUnitary(t, "orthonormalized", q, 1e-12)
	// The span must be preserved: every column of A is Q Q† A's column.
	proj := Mul(q, Mul(q.ConjTranspose(), a))
	if d := Sub(proj, a).MaxAbs(); d > 1e-11 {
		t.Errorf("span not preserved: residual %g", d)
	}
}

func TestHessenbergForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{2, 3, 8, 25} {
		a := randMatrix(rng, n, n)
		h, q := Hessenberg(a)
		checkUnitary(t, "Hessenberg Q", q, 1e-12)
		// H = Q† A Q
		if d := Sub(Mul(q.ConjTranspose(), Mul(a, q)), h).MaxAbs(); d > 1e-11 {
			t.Errorf("n=%d: ||Q†AQ - H|| = %g", n, d)
		}
		for i := 2; i < n; i++ {
			for j := 0; j < i-1; j++ {
				if h.At(i, j) != 0 {
					t.Errorf("n=%d: H(%d,%d) = %v, want exactly 0", n, i, j, h.At(i, j))
				}
			}
		}
	}
}

func TestSchurDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 3, 5, 10, 30} {
		a := randMatrix(rng, n, n)
		s, err := Schur(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkUnitary(t, "Schur Z", s.Z, 1e-11)
		// A = Z T Z†
		rec := Mul(s.Z, Mul(s.T, s.Z.ConjTranspose()))
		if d := Sub(rec, a).MaxAbs(); d > 1e-10 {
			t.Errorf("n=%d: ||Z T Z† - A|| = %g", n, d)
		}
		// T strictly upper triangular below the diagonal.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(s.T.At(i, j)) > 1e-10 {
					t.Errorf("n=%d: T(%d,%d) = %v not negligible", n, i, j, s.T.At(i, j))
				}
			}
		}
	}
}

func TestEigKnownDiagonal(t *testing.T) {
	want := []complex128{1, 2i, -3, 0.5 - 0.5i}
	a := NewMatrix(4, 4)
	for i, w := range want {
		a.Set(i, i, w)
	}
	vals, _, err := Eig(a)
	if err != nil {
		t.Fatal(err)
	}
	matchEigenvalues(t, vals, want, 1e-12)
}

func TestEigResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 4, 8, 20} {
		a := randMatrix(rng, n, n)
		vals, vecs, err := Eig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j := 0; j < n; j++ {
			if r := EigResidual(a, vals[j], vecs.Col(j)); r > 1e-8 {
				t.Errorf("n=%d: eigenpair %d residual %g", n, j, r)
			}
		}
	}
}

func TestEigSimilarityInvariance(t *testing.T) {
	// Eigenvalues are invariant under similarity transforms.
	rng := rand.New(rand.NewSource(18))
	a := randMatrix(rng, 6, 6)
	p := randMatrix(rng, 6, 6)
	lu, err := FactorLU(p)
	if err != nil {
		t.Fatal(err)
	}
	b := Mul(p, Mul(a, lu.Inverse()))
	va, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := Eigenvalues(b)
	if err != nil {
		t.Fatal(err)
	}
	matchEigenvalues(t, vb, va, 1e-7)
}

// matchEigenvalues greedily pairs got with want and fails on any unmatched
// eigenvalue.
func matchEigenvalues(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("eigenvalue count %d, want %d", len(got), len(want))
	}
	used := make([]bool, len(got))
	for _, w := range want {
		best, bestDist := -1, math.Inf(1)
		for i, g := range got {
			if used[i] {
				continue
			}
			if d := cmplx.Abs(g - w); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best < 0 || bestDist > tol {
			t.Errorf("eigenvalue %v unmatched (closest distance %g > %g)", w, bestDist, tol)
			return
		}
		used[best] = true
	}
}

// BenchmarkLUSolve factors a 56 x 56 matrix and solves it against 112
// columns into reused storage: one cell of the NEGF device elimination on
// the 8x7 transport slab, [H- | R_c] on the right.
func BenchmarkLUSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const n = 56
	a, rhs := randMatrix(rng, n, n), randMatrix(rng, n, 2*n)
	x := NewMatrix(n, 2*n)
	var f LU
	if err := f.Factor(a); err != nil { // sizes f's storage
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Factor(a); err != nil {
			b.Fatal(err)
		}
		f.SolveTo(x, rhs)
	}
}
