package zlinalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][2]int{{1, 1}, {4, 4}, {10, 6}, {6, 10}, {30, 30}} {
		a := randMatrix(rng, dims[0], dims[1])
		res, err := SVD(a)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		checkUnitary(t, "SVD U", res.U, 1e-11)
		checkUnitary(t, "SVD V", res.V, 1e-11)
		// Reconstruct.
		r := len(res.S)
		sigma := NewMatrix(r, r)
		for i, s := range res.S {
			sigma.Set(i, i, complex(s, 0))
		}
		rec := Mul(res.U, Mul(sigma, res.V.ConjTranspose()))
		if d := Sub(rec, a).MaxAbs(); d > 1e-11 {
			t.Errorf("%v: ||U S V† - A|| = %g", dims, d)
		}
		// Descending order.
		for i := 1; i < r; i++ {
			if res.S[i] > res.S[i-1]+1e-14 {
				t.Errorf("%v: singular values not descending: %v", dims, res.S)
			}
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2, 1e-12): Jacobi must resolve the tiny value accurately.
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	a.Set(2, 2, 1e-12)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1e-12}
	for i, w := range want {
		if math.Abs(res.S[i]-w) > 1e-13*w+1e-25 {
			t.Errorf("sigma[%d] = %g, want %g", i, res.S[i], w)
		}
	}
	if r := res.Rank(1e-10); r != 2 {
		t.Errorf("Rank(1e-10) = %d, want 2", r)
	}
	if r := res.Rank(1e-14); r != 3 {
		t.Errorf("Rank(1e-14) = %d, want 3", r)
	}
}

func TestSVDMatchesGramEigen(t *testing.T) {
	// Squared singular values must be the eigenvalues of A†A.
	rng := rand.New(rand.NewSource(21))
	a := randMatrix(rng, 9, 5)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	gram := Mul(a.ConjTranspose(), a)
	vals, _, err := EigHermitian(gram)
	if err != nil {
		t.Fatal(err)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	for i := range vals {
		if math.Abs(vals[i]-res.S[i]*res.S[i]) > 1e-10*(1+vals[i]) {
			t.Errorf("sigma[%d]^2 = %g, Gram eigenvalue %g", i, res.S[i]*res.S[i], vals[i])
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// Rank-2 8x6 matrix from an outer product of two column pairs.
	u := randMatrix(rng, 8, 2)
	v := randMatrix(rng, 6, 2)
	a := Mul(u, v.ConjTranspose())
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Rank(1e-10); r != 2 {
		t.Errorf("Rank = %d, want 2 (S = %v)", r, res.S)
	}
}

func TestEigHermitianResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 10, 40} {
		a := randHermitian(rng, n)
		vals, vecs, err := EigHermitian(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkUnitary(t, "Hermitian eigenvectors", vecs, 1e-11)
		for j := 0; j < n; j++ {
			if r := EigResidual(a, complex(vals[j], 0), vecs.Col(j)); r > 1e-10 {
				t.Errorf("n=%d: pair %d residual %g", n, j, r)
			}
		}
		// Ascending.
		for j := 1; j < n; j++ {
			if vals[j] < vals[j-1]-1e-13 {
				t.Errorf("n=%d: eigenvalues not ascending: %v", n, vals)
			}
		}
	}
}

func TestEigHermitianKnown2x2(t *testing.T) {
	// [[0, 1],[1, 0]] has eigenvalues -1, +1.
	a := FromRows([][]complex128{{0, 1}, {1, 0}})
	vals, _, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]+1) > 1e-14 || math.Abs(vals[1]-1) > 1e-14 {
		t.Errorf("eigenvalues = %v, want [-1, 1]", vals)
	}
}

func TestEigHermitianTraceProperty(t *testing.T) {
	// Sum of eigenvalues equals the trace.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randHermitian(r, n)
		vals, _, err := EigHermitian(a)
		if err != nil {
			return false
		}
		var sum, tr float64
		for i := 0; i < n; i++ {
			sum += vals[i]
			tr += real(a.At(i, i))
		}
		return math.Abs(sum-tr) < 1e-10*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGeneralizedEigInvertibleB(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 8
	a := randMatrix(rng, n, n)
	b := randMatrix(rng, n, n)
	res, err := GeneralizedEig(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		if res.IsInf[j] {
			continue
		}
		if r := GeneralizedEigResidual(a, b, res.Values[j], res.Vectors.Col(j)); r > 1e-7 {
			t.Errorf("pair %d: residual %g (lambda=%v)", j, r, res.Values[j])
		}
	}
}

func TestGeneralizedEigSingularB(t *testing.T) {
	// B singular: the pencil has infinite eigenvalues that must be flagged.
	a := FromRows([][]complex128{
		{2, 1, 0},
		{0, 3, 1},
		{1, 0, 4},
	})
	b := FromRows([][]complex128{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 0}, // rank 2
	})
	res, err := GeneralizedEig(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nInf := 0
	for j := range res.Values {
		if res.IsInf[j] {
			nInf++
			continue
		}
		if r := GeneralizedEigResidual(a, b, res.Values[j], res.Vectors.Col(j)); r > 1e-8 {
			t.Errorf("finite pair %d residual %g", j, r)
		}
	}
	if nInf != 1 {
		t.Errorf("infinite eigenvalue count = %d, want 1 (values %v)", nInf, res.Values)
	}
}

func TestGeneralizedEigDiagonalKnown(t *testing.T) {
	// diag(a_i) x = lambda diag(b_i) x  =>  lambda_i = a_i / b_i.
	a := NewMatrix(3, 3)
	b := NewMatrix(3, 3)
	av := []complex128{2, 3i, -1}
	bv := []complex128{1, 2, 4i}
	for i := 0; i < 3; i++ {
		a.Set(i, i, av[i])
		b.Set(i, i, bv[i])
	}
	res, err := GeneralizedEig(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{2, 1.5i, -1 / (4i)}
	got := make([]complex128, 0, 3)
	for j := range res.Values {
		if !res.IsInf[j] {
			got = append(got, res.Values[j])
		}
	}
	if len(got) != 3 {
		t.Fatalf("expected 3 finite eigenvalues, got %v", res.Values)
	}
	matchEigenvalues(t, got, want, 1e-10)
}

func TestGeneralizedEigCompanionQEP(t *testing.T) {
	// Scalar quadratic -h-/z + (E-h0) - h+ z = 0 linearized as a 2x2 pencil
	// must reproduce the closed-form roots.
	hm := complex(0.7, 0.1) // h- = conj(h+)
	hp := cmplx.Conj(hm)
	h0 := complex(0.3, 0)
	E := complex(1.1, 0)
	// Multiply by z: -h- + (E-h0) z - h+ z^2 = 0.
	// Companion pencil: [[0,1],[h-, -(E-h0)]] v = z [[1,0],[0,-h+]] v
	a := FromRows([][]complex128{{0, 1}, {hm, -(E - h0)}})
	b := FromRows([][]complex128{{1, 0}, {0, -hp}})
	res, err := GeneralizedEig(a, b)
	if err != nil {
		t.Fatal(err)
	}
	disc := cmplx.Sqrt((E-h0)*(E-h0) - 4*hp*hm)
	want := []complex128{((E - h0) + disc) / (2 * hp), ((E - h0) - disc) / (2 * hp)}
	matchEigenvalues(t, res.Values, want, 1e-10)
}

func TestEigVsHermitianConsistency(t *testing.T) {
	// The general Schur path and the Hermitian path must agree on a
	// Hermitian matrix.
	rng := rand.New(rand.NewSource(25))
	a := randHermitian(rng, 12)
	general, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	herm, _, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	gotReal := make([]float64, len(general))
	for i, v := range general {
		if math.Abs(imag(v)) > 1e-9 {
			t.Errorf("Hermitian matrix produced complex eigenvalue %v", v)
		}
		gotReal[i] = real(v)
	}
	sort.Float64s(gotReal)
	for i := range herm {
		if math.Abs(gotReal[i]-herm[i]) > 1e-8 {
			t.Errorf("eig[%d]: Schur %g vs Hermitian %g", i, gotReal[i], herm[i])
		}
	}
}
