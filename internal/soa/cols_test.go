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

// randCoef is a random per-column coefficient whose mask sets two lanes in
// three and clears frozen.
func randCoef(rng *rand.Rand, nb, frozen int) *ColCoef[float64] {
	a := &ColCoef[float64]{Re: simdFill(rng, nb), Im: simdFill(rng, nb), Mask: make([]uint64, nb)}
	for c := range a.Mask {
		if rng.Intn(3) > 0 {
			a.Mask[c] = ^uint64(0)
		}
	}
	a.Mask[frozen] = 0
	return a
}

// krylovSet is a Krylov block set of simdFill data with a frozen column
// poisoned in every block, and an alpha and a beta coefficient that both
// mask that column off.
func krylovSet(rng *rand.Rand, n, nb int) (k *Krylov[float64], a, b *ColCoef[float64], frozen int) {
	k = &Krylov[float64]{}
	for _, bl := range []**Block[float64]{&k.X, &k.XD, &k.R, &k.RD, &k.P, &k.PD, &k.Q, &k.QD} {
		*bl = colsBlock(rng, n, nb)
	}
	frozen = rng.Intn(nb)
	poisonCol(frozen, krylovBlocks(k)...)
	return k, randCoef(rng, nb, frozen), randCoef(rng, nb, frozen), frozen
}

func cloneKrylov(k *Krylov[float64]) *Krylov[float64] {
	return &Krylov[float64]{cloneBlock(k.X), cloneBlock(k.XD), cloneBlock(k.R), cloneBlock(k.RD),
		cloneBlock(k.P), cloneBlock(k.PD), cloneBlock(k.Q), cloneBlock(k.QD)}
}

func krylovBlocks(k *Krylov[float64]) []*Block[float64] {
	return []*Block[float64]{k.X, k.XD, k.R, k.RD, k.P, k.PD, k.Q, k.QD}
}

// laneArms runs AlphaCols then BetaCols on k through the scalar bodies or
// the asm, returning the alpha sums.
func laneArms(k *Krylov[float64], a, b *ColCoef[float64], asm bool) *[4][]float64 {
	nb := len(a.Mask)
	sums := &[4][]float64{}
	for s := range sums {
		sums[s] = simdFill(rand.New(rand.NewSource(int64(s))), nb) // stale contents must be overwritten
	}
	pa := &[8][]float64{k.R.Re, k.R.Im, k.RD.Re, k.RD.Im, k.Q.Re, k.Q.Im, k.QD.Re, k.QD.Im}
	ca := &[2][]float64{a.Re, a.Im}
	pb := &[12][]float64{k.P.Re, k.P.Im, k.PD.Re, k.PD.Im, k.R.Re, k.R.Im, k.RD.Re, k.RD.Im,
		k.X.Re, k.X.Im, k.XD.Re, k.XD.Im}
	cb := &[4][]float64{a.Re, a.Im, b.Re, b.Im}
	if asm {
		alphaColsAVX2(pa, ca, a.Mask, sums)
		betaColsAVX2(pb, cb, a.Mask, b.Mask)
	} else {
		alphaColsScalar(pa, ca, a.Mask, sums)
		betaColsScalar(pb, cb, a.Mask, b.Mask)
	}
	return sums
}

// checkLaneKernels runs AlphaCols and BetaCols through both arms from the
// same Krylov set and requires the scalar arm to leave the frozen column
// bit-unchanged and the AVX2 arm to agree with it bit for bit, planes and
// sums (the poisoned column's sums are NaN on both arms and skipped).
func checkLaneKernels(t *testing.T, name string, k0 *Krylov[float64], a, b *ColCoef[float64], frozen int) {
	t.Helper()
	nb := len(a.Mask)
	want, got := cloneKrylov(k0), cloneKrylov(k0)
	wantSums := laneArms(want, a, b, false)
	for bi, bl := range krylovBlocks(want) {
		prior := krylovBlocks(k0)[bi]
		for i := 0; i < bl.n; i++ {
			j := i*nb + frozen
			if math.Float64bits(bl.Re[j]) != math.Float64bits(prior.Re[j]) ||
				math.Float64bits(bl.Im[j]) != math.Float64bits(prior.Im[j]) {
				t.Fatalf("%s: scalar arm rewrote frozen column %d of block %d at row %d", name, frozen, bi, i)
			}
		}
	}
	if !HasAVX2 {
		return
	}
	gotSums := laneArms(got, a, b, true)
	for bi, bl := range krylovBlocks(got) {
		eqBits(t, fmt.Sprintf("%s block %d/re", name, bi), bl.Re, krylovBlocks(want)[bi].Re)
		eqBits(t, fmt.Sprintf("%s block %d/im", name, bi), bl.Im, krylovBlocks(want)[bi].Im)
	}
	for s := range gotSums {
		for c := 0; c < nb; c++ {
			if c != frozen && math.Float64bits(gotSums[s][c]) != math.Float64bits(wantSums[s][c]) {
				t.Fatalf("%s: sum %d of column %d = %g, scalar %g", name, s, c, gotSums[s][c], wantSums[s][c])
			}
		}
	}
}

// TestColsKernelsBitIdentical: each column-lane asm kernel equals its scalar
// sibling bit for bit on every block width the solver produces (whole
// vectors, scalar-lane tails, both) and a masked-off column full of NaN/Inf
// comes back bit-unchanged from both arms.
func TestColsKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, nb := range []int{1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 17, 20} {
		for _, n := range []int{0, 1, 3, 200, 1000} {
			name := fmt.Sprintf("nb=%d/n=%d", nb, n)
			k, a, b, frozen := krylovSet(rng, n, nb)
			checkLaneKernels(t, name, k, a, b, frozen)

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

// TestAlphaColsSumsAreDotCols: the sums AlphaCols leaves are exactly what
// DotCols returns on the blocks it leaves.
func TestAlphaColsSumsAreDotCols(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	n, nb := 41, 11
	k, a, _, frozen := krylovSet(rng, n, nb)
	for _, bl := range krylovBlocks(k) { // finite data in the frozen column too
		for i := 0; i < n; i++ {
			bl.Re[i*nb+frozen], bl.Im[i*nb+frozen] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
	got := [4][]float64{make([]float64, nb), make([]float64, nb), make([]float64, nb), make([]float64, nb)}
	AlphaCols(k, a, got[0], got[1], got[2], got[3])
	want := [4][]float64{make([]float64, nb), make([]float64, nb), make([]float64, nb), make([]float64, nb)}
	junk := make([]float64, nb)
	DotCols(want[0], want[1], k.RD, k.R)
	DotCols(want[2], junk, k.R, k.R)
	DotCols(want[3], junk, k.RD, k.RD)
	for s := range want {
		eqBits(t, fmt.Sprintf("sum %d", s), got[s], want[s])
	}
}

// TestBetaColsReadsOldDirections: the solution update sees the directions
// from before the direction update of the same pass, and a zero beta mask
// leaves them bit-unchanged.
func TestBetaColsReadsOldDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n, nb := 23, 9
	k, a, b, _ := krylovSet(rng, n, nb)
	for _, bl := range krylovBlocks(k) {
		for i := range bl.Re {
			bl.Re[i], bl.Im[i] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
	for c := range a.Mask {
		a.Mask[c], b.Mask[c] = ^uint64(0), ^uint64(0)
	}
	ref := cloneKrylov(k)
	BetaCols(k, a, b)
	for i := 0; i < n; i++ {
		for c := 0; c < nb; c++ {
			j := i*nb + c
			xr, xi := ref.X.Re[j], ref.X.Im[j]
			pr, pi := ref.P.Re[j], ref.P.Im[j]
			xr += a.Re[c]*pr - a.Im[c]*pi
			xi += a.Re[c]*pi + a.Im[c]*pr
			if k.X.Re[j] != xr || k.X.Im[j] != xi {
				t.Fatalf("X[%d,%d] = (%g, %g), want (%g, %g) from the old P", i, c, k.X.Re[j], k.X.Im[j], xr, xi)
			}
		}
	}
	ref = cloneKrylov(k)
	for c := range b.Mask {
		b.Mask[c] = 0
	}
	BetaCols(k, a, b)
	eqBits(t, "P/re", k.P.Re, ref.P.Re)
	eqBits(t, "P/im", k.P.Im, ref.P.Im)
	eqBits(t, "PD/re", k.PD.Re, ref.PD.Re)
	eqBits(t, "PD/im", k.PD.Im, ref.PD.Im)
}

// TestColsKernelsGuards: mis-shaped blocks or coefficients and a written
// block aliasing another are refused before any kernel runs.
func TestColsKernelsGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const n, nb = 5, 6
	k, a, b, _ := krylovSet(rng, n, nb)
	s := make([]float64, nb)
	AlphaCols(k, a, s, s, s, s)
	BetaCols(k, a, b)
	for _, tc := range []struct {
		name        string
		alpha, beta bool // which kernels must refuse
		edit        func(k *Krylov[float64], a *ColCoef[float64])
	}{
		{"block rows", true, true, func(k *Krylov[float64], a *ColCoef[float64]) { k.Q = colsBlock(rng, n+1, nb) }},
		{"block width", true, true, func(k *Krylov[float64], a *ColCoef[float64]) { k.XD = colsBlock(rng, n, nb+1) }},
		{"coef length", true, true, func(k *Krylov[float64], a *ColCoef[float64]) { a.Im = a.Im[:nb-1] }},
		{"mask length", true, true, func(k *Krylov[float64], a *ColCoef[float64]) { a.Mask = a.Mask[:nb-1] }},
		{"R aliases Q", true, false, func(k *Krylov[float64], a *ColCoef[float64]) { k.R = k.Q }},
		{"RD aliases R rows", true, false, func(k *Krylov[float64], a *ColCoef[float64]) { k.RD = k.R.Rows(0, n) }},
		{"P aliases R", false, true, func(k *Krylov[float64], a *ColCoef[float64]) { k.P = k.R }},
		{"PD aliases P", false, true, func(k *Krylov[float64], a *ColCoef[float64]) { k.PD = k.P }},
		{"X aliases XD", false, true, func(k *Krylov[float64], a *ColCoef[float64]) { k.X = k.XD }},
	} {
		kk, aa := *k, *a
		tc.edit(&kk, &aa)
		if tc.alpha {
			expectPanic(t, tc.name+" AlphaCols", func() { AlphaCols(&kk, &aa, s, s, s, s) })
		}
		if tc.beta {
			expectPanic(t, tc.name+" BetaCols", func() { BetaCols(&kk, &aa, b) })
		}
	}
	short := *b
	short.Mask = short.Mask[:nb-1]
	expectPanic(t, "beta mask length", func() { BetaCols(k, a, &short) })
	expectPanic(t, "sums length", func() { AlphaCols(k, a, s, s, s, s[:nb-1]) })
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
	k, a, b, _ := krylovSet(rng, n, nb)
	s := make([]float64, 4*nb)
	if allocs := testing.AllocsPerRun(10, func() {
		AlphaCols(k, a, s[:nb], s[nb:2*nb], s[2*nb:3*nb], s[3*nb:])
		BetaCols(k, a, b)
		DotCols(s[:nb], s[nb:2*nb], k.PD, k.Q)
	}); allocs != 0 {
		t.Errorf("column-lane kernels allocate %.0f times per round, want 0", allocs)
	}
}

// benchCols times one column-lane kernel on the Al-shaped blocks of the
// layer benchmarks: n = 1000 grid points, nb = 4 (sweep), 8 (the tight-binding
// transport solve) and 16 (paper Nrh) columns, every lane live, |coefficients| < 1 so repeated
// steps stay bounded. CBS_NO_AVX2=1 times the scalar arm.
func benchCols(b *testing.B, run func(k *Krylov[float64], a, c *ColCoef[float64], sums []float64)) {
	for _, nb := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(46))
			k, a, c, _ := krylovSet(rng, 1000, nb)
			for _, bl := range krylovBlocks(k) {
				for i := range bl.Re {
					bl.Re[i], bl.Im[i] = rng.NormFloat64(), rng.NormFloat64()
				}
			}
			for i := range a.Mask {
				a.Re[i], a.Im[i], c.Re[i], c.Im[i] = 0.01, -0.02, 0.3, 0.2
				a.Mask[i], c.Mask[i] = ^uint64(0), ^uint64(0)
			}
			sums := make([]float64, 4*nb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(k, a, c, sums)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/col")
		})
	}
}

func BenchmarkAlphaCols(b *testing.B) {
	benchCols(b, func(k *Krylov[float64], a, _ *ColCoef[float64], s []float64) {
		nb := len(a.Mask)
		AlphaCols(k, a, s[:nb], s[nb:2*nb], s[2*nb:3*nb], s[3*nb:])
	})
}

func BenchmarkBetaCols(b *testing.B) {
	benchCols(b, func(k *Krylov[float64], a, c *ColCoef[float64], _ []float64) {
		BetaCols(k, a, c)
	})
}

func BenchmarkDotCols(b *testing.B) {
	benchCols(b, func(k *Krylov[float64], a, _ *ColCoef[float64], s []float64) {
		nb := len(a.Mask)
		DotCols(s[:nb], s[nb:2*nb], k.PD, k.Q)
	})
}
