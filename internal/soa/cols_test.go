package soa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// colsBlock is an n x nb block of simdFill data (denormals, -0, +-1e300).
func colsBlock(rng *rand.Rand, n, nb int) *Block[float64] {
	b := NewBlock[float64](n, nb)
	copy(b.Re, simdFill(rng, n*nb))
	copy(b.Im, simdFill(rng, n*nb))
	return b
}

func cloneBlock(b *Block[float64]) *Block[float64] {
	c := NewBlock[float64](b.n, b.nb)
	copy(c.Re, b.Re)
	copy(c.Im, b.Im)
	return c
}

// poisonCol fills column c of every given block with NaN and +-Inf, the
// state a broken-down column is frozen in.
func poisonCol(c int, blocks ...*Block[float64]) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.NaN()}
	for _, b := range blocks {
		for i := 0; i < b.n; i++ {
			b.Re[i*b.nb+c] = bad[i%4]
			b.Im[i*b.nb+c] = bad[(i+1)%4]
		}
	}
}

// TestColsKernelsBitIdentical: each column-lane asm kernel equals its scalar
// sibling bit for bit on every block width the solver produces (whole
// vectors, scalar-lane tails, both) and a masked-off column full of NaN/Inf
// comes back bit-unchanged from both arms.
func TestColsKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, nb := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17} {
		for _, n := range []int{1, 3, 1000} {
			name := fmt.Sprintf("nb=%d/n=%d", nb, n)
			dst0, src := colsBlock(rng, n, nb), colsBlock(rng, n, nb)
			aRe, aIm := simdFill(rng, nb), simdFill(rng, nb)
			mask := make([]uint64, nb)
			for c := range mask {
				if rng.Intn(3) > 0 {
					mask[c] = ^uint64(0)
				}
			}
			frozen := rng.Intn(nb)
			mask[frozen] = 0
			poisonCol(frozen, dst0, src)

			for _, k := range []struct {
				name           string
				scalar, vector func(d *Block[float64])
			}{
				{"axpyCols",
					func(d *Block[float64]) { axpyColsScalar(d.Re, d.Im, src.Re, src.Im, aRe, aIm, mask) },
					func(d *Block[float64]) { axpyColsAVX2(d.Re, d.Im, src.Re, src.Im, aRe, aIm, mask) }},
				{"xpayCols",
					func(d *Block[float64]) { xpayColsScalar(d.Re, d.Im, src.Re, src.Im, aRe, aIm, mask) },
					func(d *Block[float64]) { xpayColsAVX2(d.Re, d.Im, src.Re, src.Im, aRe, aIm, mask) }},
			} {
				want, got := cloneBlock(dst0), cloneBlock(dst0)
				k.scalar(want)
				for i := 0; i < n; i++ {
					j := i*nb + frozen
					if math.Float64bits(want.Re[j]) != math.Float64bits(dst0.Re[j]) ||
						math.Float64bits(want.Im[j]) != math.Float64bits(dst0.Im[j]) {
						t.Fatalf("%s %s: scalar arm rewrote frozen column %d at row %d", k.name, name, frozen, i)
					}
				}
				if !HasAVX2 {
					continue
				}
				k.vector(got)
				eqBits(t, k.name+"/re "+name, got.Re, want.Re)
				eqBits(t, k.name+"/im "+name, got.Im, want.Im)
			}

			if !HasAVX2 {
				continue
			}
			// Dots have no mask; poison would only compare NaN payloads.
			x, y := colsBlock(rng, n, nb), colsBlock(rng, n, nb)
			wantRe, wantIm := simdFill(rng, nb), simdFill(rng, nb) // stale contents must be overwritten
			gotRe, gotIm := simdFill(rng, nb), simdFill(rng, nb)
			dotColsScalar(wantRe, wantIm, x.Re, x.Im, y.Re, y.Im)
			dotColsAVX2(gotRe, gotIm, x.Re, x.Im, y.Re, y.Im)
			eqBits(t, "dotCols/re "+name, gotRe, wantRe)
			eqBits(t, "dotCols/im "+name, gotIm, wantIm)
		}
	}
}

// TestDotColsSelfIsSquaredNorm: DotCols(x, x) accumulates exactly the
// re*re + im*im row sum the solver's norms are defined by.
func TestDotColsSelfIsSquaredNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n, nb := 37, 7
	x := colsBlock(rng, n, nb)
	dRe, dIm := make([]float64, nb), make([]float64, nb)
	DotCols(dRe, dIm, x, x)
	want := make([]float64, nb)
	for i := 0; i < n; i++ {
		for c := range want {
			re, im := x.Re[i*nb+c], x.Im[i*nb+c]
			want[c] += re*re + im*im
		}
	}
	eqBits(t, "norm2", dRe, want)
}

func TestColsKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n, nb := 19, 7 // one vector + a three-lane tail per row
	d, s := colsBlock(rng, n, nb), colsBlock(rng, n, nb)
	aRe, aIm := simdFill(rng, nb), simdFill(rng, nb)
	mask := make([]uint64, nb)
	for c := range mask {
		mask[c] = ^uint64(0)
	}
	if a := testing.AllocsPerRun(10, func() {
		AxpyCols(d, s, aRe, aIm, mask)
		XpayCols(d, s, aRe, aIm, mask)
		DotCols(aRe, aIm, d, s)
	}); a != 0 {
		t.Errorf("column-lane kernels allocate %.0f times per round, want 0", a)
	}
}

// benchCols is the Al-shaped block of the layer benchmarks: n = 1000 grid
// points, nb = 4 (sweep) and 16 (paper Nrh) columns. CBS_NO_AVX2=1 times
// the scalar arm.
func benchCols(b *testing.B, run func(d, s *Block[float64], aRe, aIm []float64, mask []uint64)) {
	for _, nb := range []int{4, 16} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(46))
			n := 1000
			d, s := NewBlock[float64](n, nb), NewBlock[float64](n, nb)
			for i := range d.Re {
				d.Re[i], d.Im[i] = rng.NormFloat64(), rng.NormFloat64()
				s.Re[i], s.Im[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			aRe, aIm := make([]float64, nb), make([]float64, nb)
			mask := make([]uint64, nb)
			for c := range mask {
				// |a| < 1 keeps the repeated xpay recurrence bounded.
				aRe[c], aIm[c] = 0.5*rng.Float64(), 0.5*rng.Float64()
				mask[c] = ^uint64(0)
			}
			b.ReportAllocs()
			b.SetBytes(int64(n * nb * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(d, s, aRe, aIm, mask)
			}
		})
	}
}

func BenchmarkAxpyCols(b *testing.B) {
	benchCols(b, func(d, s *Block[float64], aRe, aIm []float64, mask []uint64) {
		AxpyCols(d, s, aRe, aIm, mask)
	})
}

func BenchmarkXpayCols(b *testing.B) {
	benchCols(b, func(d, s *Block[float64], aRe, aIm []float64, mask []uint64) {
		XpayCols(d, s, aRe, aIm, mask)
	})
}

func BenchmarkDotCols(b *testing.B) {
	benchCols(b, func(d, s *Block[float64], aRe, aIm []float64, mask []uint64) {
		DotCols(aRe, aIm, d, s)
	})
}
