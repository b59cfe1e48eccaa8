package zlinalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// hankelLike returns the r x c Hankel matrix H[i][j] = mu_{i+j} of the
// moments mu_k = sum_l w_l * lambda_l^k of rank eigenvalues on an annulus
// around the unit circle: the rank-deficient shape of the Sakurai-Sugiura
// Hankel block.
func hankelLike(rng *rand.Rand, r, c, rank int) *Matrix {
	lam, wt := make([]complex128, rank), make([]complex128, rank)
	for l := range lam {
		lam[l] = cmplx.Rect(0.95+0.1*rng.Float64(), 2*math.Pi*rng.Float64())
		wt[l] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	mu := make([]complex128, r+c-1)
	for k := range mu {
		for l := range lam {
			mu[k] += wt[l] * cmplx.Pow(lam[l], complex(float64(k), 0))
		}
	}
	h := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			h.Set(i, j, mu[i+j])
		}
	}
	return h
}

func sameBits(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// TestSVDBitsMatchReference: the lane-parallel sweep returns S, U and V
// bit-equal to the row-cyclic scalar sweep on rank-deficient Hankel-like
// matrices of every size up to two vector widths, the transport_tb (56) and
// solve_al (128) Hankel sizes and their odd neighbours, and non-square
// matrices on each side of the m < n branch.
func TestSVDBitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][2]int{{56, 56}, {57, 57}, {128, 128}, {131, 131}, {40, 23}, {23, 40}, {9, 1}, {1, 9}}
	for n := 1; n <= 9; n++ {
		shapes = append(shapes, [2]int{n, n})
	}
	for _, sh := range shapes {
		r, c := sh[0], sh[1]
		rank := max(1, min(r, c)/4)
		a := hankelLike(rng, r, c, rank)
		want, err := referenceSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%dx%d rank %d", r, c, rank)
		s := make([]complex128, len(got.S))
		sw := make([]complex128, len(want.S))
		for i := range s {
			s[i], sw[i] = complex(got.S[i], 0), complex(want.S[i], 0)
		}
		sameBits(t, name+" S", s, sw)
		sameBits(t, name+" U", got.U.Data, want.U.Data)
		sameBits(t, name+" V", got.V.Data, want.V.Data)
	}
}

// BenchmarkJacobiSVD is the layer benchmark of the Hankel SVD behind
// core.extract_ms: a seeded 128 x 128 rank-8 Hankel-like matrix, the
// solve_al shape. CBS_NO_AVX2=1 times the scalar arm.
func BenchmarkJacobiSVD(b *testing.B) {
	a := hankelLike(rand.New(rand.NewSource(62)), 128, 128, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SVD(a); err != nil {
			b.Fatal(err)
		}
	}
}
