package soa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zrowValue draws a float64 that is often special: ±0, ±Inf, NaN, a
// subnormal, a huge or an ordinary value.
func zrowValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1 - 2*rng.Intn(2))
	case 3:
		return math.NaN()
	case 4:
		return 5e-324 * float64(rng.Intn(100)+1) * float64(1-2*rng.Intn(2))
	case 5:
		return (rng.Float64() - 0.5) * 1e300
	default:
		return rng.NormFloat64()
	}
}

func zrowFill(rng *rand.Rand, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(zrowValue(rng), zrowValue(rng))
	}
	return s
}

// sameComplexBits reports whether a and b have the same IEEE bits in both
// parts, except that any two NaNs match: when both operands of a
// commutative multiply or add are NaNs, x86 returns the first one, and
// the compiler is free to order those operands either way.
func sameComplexBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// checkRowKernels runs dst ∓= a*src over n elements starting at off in
// rows with three guard elements on each side, through Go's loop, the
// scalar sibling and (on AVX2 hosts) the asm, and requires every row to
// agree element for element and the guards to be untouched.
func checkRowKernels(t *testing.T, rng *rand.Rand, n, off int) {
	t.Helper()
	const guard = 3
	src := zrowFill(rng, off+n+guard)
	dst0 := zrowFill(rng, off+n+guard)
	a := complex(zrowValue(rng), zrowValue(rng))
	if rng.Intn(2) == 0 {
		a = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, sub := range []bool{true, false} {
		name := fmt.Sprintf("n=%d off=%d sub=%v a=%v", n, off, sub, a)
		want := append([]complex128(nil), dst0...)
		w, s := want[off:off+n], src[off:off+n]
		for k := range w {
			if sub {
				w[k] -= a * s[k]
			} else {
				w[k] += a * s[k]
			}
		}
		arms := map[string]func(d []complex128){}
		if sub {
			arms["scalar"] = func(d []complex128) { subMulRowScalar(d, a, s) }
			arms["exported"] = func(d []complex128) { SubMulRow(d, a, s) }
			if HasAVX2 {
				arms["avx2"] = func(d []complex128) { subMulRowAVX2(d, s, real(a), imag(a)) }
			}
		} else {
			arms["scalar"] = func(d []complex128) { addMulRowScalar(d, a, s) }
			arms["exported"] = func(d []complex128) { AddMulRow(d, a, s) }
			if HasAVX2 {
				arms["avx2"] = func(d []complex128) { addMulRowAVX2(d, s, real(a), imag(a)) }
			}
		}
		for arm, run := range arms {
			got := append([]complex128(nil), dst0...)
			run(got[off : off+n])
			for k := range got {
				if !sameComplexBits(got[k], want[k]) {
					t.Fatalf("%s %s: element %d = %v, Go loop gives %v", name, arm, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRowKernelsBitIdentical: the row kernels against Go's complex128
// loop at every length 0..33 (the four-element body, the two-element step
// and the one-element tail in every combination) and start offsets 0..3,
// on data full of signed zeros, infinities, NaNs and subnormals.
func TestRowKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 0; n <= 33; n++ {
		for off := 0; off <= 3; off++ {
			for trial := 0; trial < 4; trial++ {
				checkRowKernels(t, rng, n, off)
			}
		}
	}
}

// FuzzRowKernels: the row kernels agree with Go's loop at any length,
// offset and data the fuzzer finds.
func FuzzRowKernels(f *testing.F) {
	f.Add(uint16(112), uint8(0), int64(1)) // a transport solve row
	f.Add(uint16(55), uint8(1), int64(2))  // an LU row update
	f.Add(uint16(0), uint8(3), int64(3))
	f.Add(uint16(7), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, n uint16, off uint8, seed int64) {
		checkRowKernels(t, rand.New(rand.NewSource(seed)), int(n%600), int(off%4))
	})
}

func TestRowKernelsGuardsAndZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	dst, src := zrowFill(rng, 67), zrowFill(rng, 67)
	expectPanic(t, "SubMulRow lengths", func() { SubMulRow(dst, 1, src[:66]) })
	expectPanic(t, "AddMulRow lengths", func() { AddMulRow(dst[:66], 1, src) })
	if a := testing.AllocsPerRun(10, func() {
		SubMulRow(dst, 0.5i, src)
		AddMulRow(dst, 0.5i, src)
	}); a != 0 {
		t.Errorf("row kernels allocate %.0f times per call, want 0", a)
	}
}
