package soa

import (
	"math"
	"math/rand"
	"testing"
)

// The SIMD kernels must be bit-identical to their scalar siblings: the
// solver's bit goldens rest on it. Every length from 0 through a few
// vectors plus tails is checked, with denormals, negative zeros and mixed
// magnitudes in the data.
func simdFill(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = math.Copysign(0, -1)
		case 1:
			s[i] = 5e-324 * float64(rng.Intn(100))
		case 2:
			s[i] = (rng.Float64() - 0.5) * 1e300
		default:
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

func eqBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %g (%#x), scalar %g (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestSIMDKernelsBitIdentical(t *testing.T) {
	if !HasAVX2 {
		t.Skip("no AVX2 on this machine; scalar paths are the reference")
	}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 129} {
		srcRe, srcIm := simdFill(rng, n), simdFill(rng, n)
		cr, ci := rng.NormFloat64(), rng.NormFloat64()
		wantRe, wantIm := simdFill(rng, n), simdFill(rng, n)
		gotRe := append([]float64(nil), wantRe...)
		gotIm := append([]float64(nil), wantIm...)
		axpyCplxScalar(wantRe, wantIm, srcRe, srcIm, cr, ci)
		axpyCplxAVX2(gotRe, gotIm, srcRe, srcIm, cr, ci)
		eqBits(t, "axpyCplx/re", gotRe, wantRe)
		eqBits(t, "axpyCplx/im", gotIm, wantIm)
	}
}

// TestAxpyRows: the row window lands where it should and nowhere else.
func TestAxpyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, nb = 9, 5
	src, dst0 := colsBlock(rng, n, nb), colsBlock(rng, n, nb)
	got := cloneBlock(dst0)
	AxpyRows(got, src, 4, 1, 3, 0.5, -0.25)
	want := cloneBlock(dst0)
	axpyCplxScalar(want.Re[4*nb:7*nb], want.Im[4*nb:7*nb], src.Re[1*nb:4*nb], src.Im[1*nb:4*nb], 0.5, -0.25)
	eqBits(t, "AxpyRows/re", got.Re, want.Re)
	eqBits(t, "AxpyRows/im", got.Im, want.Im)
	expectPanic(t, "dst window", func() { AxpyRows(got, src, 7, 0, 3, 1, 0) })
	expectPanic(t, "src window", func() { AxpyRows(got, src, 0, 7, 3, 1, 0) })
	expectPanic(t, "negative row", func() { AxpyRows(got, src, -1, 0, 1, 1, 0) })
	expectPanic(t, "block width", func() { AxpyRows(got, colsBlock(rng, n, nb+1), 0, 0, 1, 1, 0) })
}

func TestSIMDKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dst, src := colsBlock(rng, 67, 1), colsBlock(rng, 67, 1) // vector body + tail
	if a := testing.AllocsPerRun(10, func() { AxpyRows(dst, src, 0, 0, 67, 0.5, -0.25) }); a != 0 {
		t.Errorf("AxpyRows allocates %.0f times per call, want 0", a)
	}
}
