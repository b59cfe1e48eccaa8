package zlinalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
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

// TestSVDBitsMatchReference: the QR-preconditioned lane-parallel sweep
// returns S, U, V and the sweep count bit-equal to the same recipe on the
// scalar loops (preconditionedReference: scalar QR, the row-cyclic
// reference sweep, scalar reflections) on rank-deficient Hankel-like
// matrices of every size up to two vector widths, the transport_tb (56)
// and solve_al (128) Hankel sizes and their odd neighbours, and
// non-square matrices of both orientations.
func TestSVDBitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, sh := range svdBitsShapes() {
		r, c := sh[0], sh[1]
		rank := max(1, min(r, c)/4)
		a := hankelLike(rng, r, c, rank)
		want, err := preconditionedReference(a)
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
		if got.Sweeps != want.Sweeps {
			t.Errorf("%s: %d sweeps, reference %d", name, got.Sweeps, want.Sweeps)
		}
	}
}

// svdBitsShapes are the shapes of the bit-identity tests: every size up to
// two vector widths, the transport_tb (56) and solve_al (128) Hankel sizes
// and their odd neighbours, and non-square matrices of both orientations.
func svdBitsShapes() [][2]int {
	shapes := [][2]int{{56, 56}, {57, 57}, {128, 128}, {131, 131}, {40, 23}, {23, 40}, {9, 1}, {1, 9}}
	for n := 1; n <= 9; n++ {
		shapes = append(shapes, [2]int{n, n})
	}
	return shapes
}

// TestFactorQRBitsMatchScalar: FactorQR's reflections on the row kernels
// give the bits of the scalar column loops (scalarQR, scalarApplyQ) in R,
// the reflectors and Q, on square and tall matrices, one with a zero
// column (a reflector skipped) and one with a zero row.
func TestFactorQRBitsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, sh := range [][2]int{{1, 1}, {5, 5}, {56, 56}, {40, 23}, {9, 1}, {17, 6}} {
		a := randMatrix(rng, sh[0], sh[1])
		cases := map[string]*Matrix{"random": a}
		if sh[1] > 1 {
			z := a.Clone()
			for i := 0; i < z.Rows; i++ {
				z.Set(i, 1, 0)
				z.Set(min(2, z.Rows-1), i%z.Cols, 0)
			}
			cases["zero row and column"] = z
		}
		for what, a := range cases {
			name := fmt.Sprintf("%dx%d %s", sh[0], sh[1], what)
			f, err := FactorQR(a)
			if err != nil {
				t.Fatal(err)
			}
			qr := a.Clone()
			tau, diag := scalarQR(qr)
			sameBits(t, name+" reflectors", f.qr.Data, qr.Data)
			sameBits(t, name+" tau", f.tau, tau)
			sameBits(t, name+" diag", f.diag, diag)
			q := NewMatrix(a.Rows, a.Cols)
			for j := 0; j < a.Cols; j++ {
				q.Set(j, j, 1)
			}
			scalarApplyQ(qr, tau, q)
			sameBits(t, name+" Q", f.Q().Data, q.Data)
		}
	}
}

// TestSVDGradedRelativeAccuracy: on graded A = B*D, B with condition
// number at most 10 and D spanning 14 decades, every singular value agrees
// with the unpreconditioned one-sided Jacobi sweep (referenceSVD, also
// relatively accurate on such matrices) to 1e-12 relative, and every
// column satisfies ||A*v_k - sigma_k*u_k|| <= 1e-13*sigma_1. D runs
// descending, ascending and shuffled.
func TestSVDGradedRelativeAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, n := range []int{8, 23, 56} {
		// B = Q1 * diag(1..10) * Q2†: condition number <= 10.
		q1, err := OrthonormalizeColumns(randMatrix(rng, n, n))
		if err != nil {
			t.Fatal(err)
		}
		q2, err := OrthonormalizeColumns(randMatrix(rng, n, n))
		if err != nil {
			t.Fatal(err)
		}
		mid := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			mid.Set(i, i, complex(1+9*rng.Float64(), 0))
		}
		b := Mul(q1, Mul(mid, q2.ConjTranspose()))
		for _, order := range []string{"descending", "ascending", "shuffled"} {
			d := make([]float64, n)
			for j := range d {
				d[j] = math.Pow(10, -14*float64(j)/float64(n-1))
			}
			switch order {
			case "ascending":
				for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
					d[i], d[j] = d[j], d[i]
				}
			case "shuffled":
				rng.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
			}
			a := b.Clone()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, a.At(i, j)*complex(d[j], 0))
				}
			}
			name := fmt.Sprintf("n %d, D %s", n, order)
			got, err := SVD(a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceSVD(a)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.S {
				if rel := math.Abs(got.S[k]-want.S[k]) / want.S[k]; rel > 1e-12 {
					t.Errorf("%s: sigma_%d = %.17g, reference %.17g (relative %.2g)", name, k, got.S[k], want.S[k], rel)
				}
			}
			for k := 0; k < n; k++ {
				r := MulVec(a, got.V.Col(k))
				Axpy(complex(-got.S[k], 0), got.U.Col(k), r)
				if res := Norm2(r); res > 1e-13*got.S[0] {
					t.Errorf("%s: ||A v_%d - sigma u|| = %.3g > 1e-13*sigma_1", name, k, res)
				}
			}
		}
	}
}

// TestSVDVOrthonormal: V's columns are orthonormal to 1e-13, those of zero
// singular values included, on rank-deficient Hankel-like matrices, a
// matrix with exact zero rows and columns, the zero matrix and non-square
// matrices of both orientations; U's columns are orthonormal wherever
// sigma > 0 and zero elsewhere.
func TestSVDVOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	cases := map[string]*Matrix{
		"hankel 56x56 rank 14":  hankelLike(rng, 56, 56, 14),
		"hankel 128x128 rank 8": hankelLike(rng, 128, 128, 8),
		"hankel 16x16 rank 3":   hankelLike(rng, 16, 16, 3),
		"hankel 40x23 rank 5":   hankelLike(rng, 40, 23, 5),
		"hankel 23x40 rank 5":   hankelLike(rng, 23, 40, 5),
		"random 7x12":           randMatrix(rng, 7, 12),
		"random 12x7":           randMatrix(rng, 12, 7),
		"zero 6x6":              NewMatrix(6, 6),
	}
	holes := randMatrix(rng, 12, 12)
	for k := 0; k < 12; k++ {
		holes.Set(3, k, 0)
		holes.Set(8, k, 0)
		holes.Set(k, 5, 0)
	}
	cases["zero rows 3, 8 and column 5 12x12"] = holes
	for name, a := range cases {
		res, err := SVD(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkUnitary(t, name+" V", res.V, 1e-13)
		g := Mul(res.U.ConjTranspose(), res.U)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				want := complex128(0)
				if i == j && res.S[i] > 0 {
					want = 1
				}
				if cmplx.Abs(g.At(i, j)-want) > 1e-12 {
					t.Errorf("%s: (U†U)[%d][%d] = %v, want %v", name, i, j, g.At(i, j), want)
				}
			}
		}
	}
}

// TestSVDWorkBytesCountsAllocations pins SVDWorkBytes, the SVD term of
// core.MemoryEstimate, to what SVD allocates on the transport_tb Hankel
// shape: at least the estimate, and beyond it only the results (U, V and
// S), O(n) scratch and the allocator's rounding to size classes (at most
// 1/8) and pages.
func TestSVDWorkBytesCountsAllocations(t *testing.T) {
	a := hankelLike(rand.New(rand.NewSource(64)), 56, 56, 14)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SVD(a); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc - before.TotalAlloc)
	work := SVDWorkBytes(56)
	results := int64(2*56*56*16 + 56*8)
	if slack := (work+results)/8 + 16<<10; got < work || got > work+results+slack {
		t.Errorf("SVD allocated %d bytes, SVDWorkBytes %d + results %d (slack %d)", got, work, results, slack)
	}
}

// BenchmarkJacobiSVD is the layer benchmark of the Hankel SVD behind
// core.extract_ms: seeded Hankel-like matrices of the transport_tb shape
// (56 x 56, rank 14) and the solve_al shape (128 x 128, rank 8).
// CBS_NO_AVX2=1 times the scalar arm.
func BenchmarkJacobiSVD(b *testing.B) {
	for _, sh := range []struct{ n, rank int }{{56, 14}, {128, 8}} {
		a := hankelLike(rand.New(rand.NewSource(62)), sh.n, sh.n, sh.rank)
		b.Run(fmt.Sprintf("%dx%d", sh.n, sh.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SVD(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
