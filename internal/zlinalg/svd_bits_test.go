package zlinalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"time"
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
	for _, sh := range svdBitsShapes() {
		r, c := sh[0], sh[1]
		rank := max(1, min(r, c)/4)
		a := hankelLike(rng, r, c, rank)
		want, err := referenceSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SVD(a, 1)
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

// svdBitsShapes are the shapes of the bit-identity tests: every size up to
// two vector widths, the transport_tb (56) and solve_al (128) Hankel sizes
// and their odd neighbours, and non-square matrices on each side of the
// m < n branch.
func svdBitsShapes() [][2]int {
	shapes := [][2]int{{56, 56}, {57, 57}, {128, 128}, {131, 131}, {40, 23}, {23, 40}, {9, 1}, {1, 9}}
	for n := 1; n <= 9; n++ {
		shapes = append(shapes, [2]int{n, n})
	}
	return shapes
}

// TestSVDReplayBitsMatchReference: with V's rotations replayed inline (1
// core) and on a goroutine overlapping the next sweep (2 cores), S, U and
// V are bit-equal to the row-cyclic reference on every shape of
// TestSVDBitsMatchReference.
func TestSVDReplayBitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, sh := range svdBitsShapes() {
		r, c := sh[0], sh[1]
		rank := max(1, min(r, c)/4)
		a := hankelLike(rng, r, c, rank)
		want, err := referenceSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, cores := range []int{1, 2} {
			got, err := SVD(a, cores)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%dx%d rank %d cores %d", r, c, rank, cores)
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
}

// TestSVDLeavesNoGoroutine: SVD joins its V replay before it returns, on
// success and on the non-convergence error (a NaN matrix rotates in every
// sweep), so the goroutine count settles back to where it started.
func TestSVDLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	nan := NewMatrix(12, 12)
	for i := range nan.Data {
		nan.Data[i] = complex(math.NaN(), 0)
	}
	for i := 0; i < 5; i++ {
		if _, err := SVD(hankelLike(rand.New(rand.NewSource(int64(i))), 56, 56, 14), 2); err != nil {
			t.Fatal(err)
		}
		if _, err := SVD(nan, 2); err == nil {
			t.Fatal("NaN matrix converged")
		}
	}
	// A joined goroutine may still be unwinding; give it a moment to exit.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after SVD, %d before", n, before)
	}
}

// TestSVDWorkBytesCountsAllocations pins SVDWorkBytes, the SVD term of
// core.MemoryEstimate, to what SVD allocates: at least the estimate, and
// beyond it only the results (U, V and S), O(n) scratch and the
// allocator's rounding to size classes (at most 1/8) and pages.
func TestSVDWorkBytesCountsAllocations(t *testing.T) {
	a := hankelLike(rand.New(rand.NewSource(64)), 56, 56, 14)
	for _, cores := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SVD(a, cores); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc - before.TotalAlloc)
		work := SVDWorkBytes(56, 56, cores)
		results := int64(2*56*56*16 + 56*8)
		if slack := (work+results)/8 + 16<<10; got < work || got > work+results+slack {
			t.Errorf("cores %d: SVD allocated %d bytes, SVDWorkBytes %d + results %d (slack %d)",
				cores, got, work, results, slack)
		}
	}
}

// BenchmarkJacobiSVD is the layer benchmark of the Hankel SVD behind
// core.extract_ms: a seeded 128 x 128 rank-8 Hankel-like matrix, the
// solve_al shape, with V replayed inline (cores=1) and on a second
// goroutine (cores=2). CBS_NO_AVX2=1 times the scalar arm.
func BenchmarkJacobiSVD(b *testing.B) {
	a := hankelLike(rand.New(rand.NewSource(62)), 128, 128, 8)
	for _, cores := range []int{1, 2} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SVD(a, cores); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
