package hamiltonian

import (
	"testing"

	"cbs/internal/lattice"
	"cbs/internal/soa"
)

// alCellDims builds the Al(100) operator on an Nx x Ny x Nz grid with
// stencil half-width nf.
func alCellDims(t *testing.T, nx, ny, nz, nf int) *Operator {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(st, Config{Nx: nx, Ny: ny, Nz: nz, Nf: nf})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// soaRoundTrip packs v, runs the SoA kernel, and unpacks the result.
func soaRoundTrip(op *Operator, v, out []complex128, nb int, run func(t *SoATables[float64], vb, ob *soa.Block[float64])) []complex128 {
	n := op.N()
	vb := soa.NewBlock[float64](n, nb)
	ob := soa.NewBlock[float64](n, nb)
	soa.Pack(vb, v)
	soa.Pack(ob, out) // accumulate kernels start from the packed prior state
	run(op.SoA64(), vb, ob)
	got := make([]complex128, n*nb)
	soa.Unpack(got, ob)
	return got
}

// expectBitIdentical fails on the first element where the SoA result is not
// bit-for-bit the AoS result (== on complex128 distinguishes every rounding
// difference except -0 vs +0 and NaN payloads, neither of which these
// kernels produce from finite input).
func expectBitIdentical(t *testing.T, name string, nb int, got, want []complex128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s nb=%d: element %d differs: soa %v, aos %v", name, nb, i, got[i], want[i])
		}
	}
}

// TestSoAKernelsBitIdentical: the float64 SoA kernels must reproduce the
// AoS blocked kernels bit-for-bit on whichever arm of the kernel dispatch
// this run has (make test-noavx2 runs the other). The grids cover the bench
// grid, axes that wrap more than once under the stencil (Nx, Ny < Nf),
// Nz = Nf where every in-cell z neighbour of some plane is absent, and
// every half-width from 1 to 6; the widths cover the sweep's single vector
// (4), the paper's 16, the lane tails around them, and one column past the
// projector reduction's stack chunk.
func TestSoAKernelsBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		op   *Operator
		nbs  []int
	}{
		{"bench-10x10x10-nf4", alCellDims(t, 10, 10, 10, 4), []int{1, 3, 4, 5, 7, 8, 16, 17, blockStackCols + 1}},
		{"10x6x10-nf4", alCellDims(t, 10, 6, 10, 4), []int{1, 3, 8, 16}},
		{"short-x-6x6x6-nf4", alCellDims(t, 6, 6, 6, 4), []int{1, 3, 8, 16}},
		{"multiwrap-3x5x4-nf4", alCellDims(t, 3, 5, 4, 4), []int{1, 4, 5, 17}},
		{"multiwrap-2x3x6-nf6", alCellDims(t, 2, 3, 6, 6), []int{1, 4, 7}},
		{"nf1-5x4x6", alCellDims(t, 5, 4, 6, 1), []int{4, 5}},
		{"nf2-5x4x6", alCellDims(t, 5, 4, 6, 2), []int{4, 5}},
		{"nf3-9x6x8", alCellDims(t, 9, 6, 8, 3), []int{1, 3, 4, 8, 16}},
		{"nf5-7x6x8", alCellDims(t, 7, 6, 8, 5), []int{4, 7}},
		{"nf6-7x6x8", alCellDims(t, 7, 6, 8, 6), []int{4, 17}},
	}
	shift := 0.37
	coefP := complex(0.3, -0.8)
	coefM := complex(-0.45, 0.15)
	for _, tc := range cases {
		n := tc.op.N()
		for _, nb := range tc.nbs {
			v := randBlock(n, nb, int64(300+nb))
			prior := randBlock(n, nb, int64(900+nb))

			want := make([]complex128, n*nb)
			tc.op.ApplyH0Block(v, want, nb)
			got := soaRoundTrip(tc.op, v, make([]complex128, n*nb), nb,
				func(tb *SoATables[float64], vb, ob *soa.Block[float64]) { tb.ApplyH0Block(vb, ob) })
			expectBitIdentical(t, tc.name+"/H0", nb, got, want)

			copy(want, prior)
			tc.op.ApplyShiftedH0Block(shift, v, want, nb)
			got = soaRoundTrip(tc.op, v, prior, nb,
				func(tb *SoATables[float64], vb, ob *soa.Block[float64]) { tb.ApplyShiftedH0Planes(shift, vb, ob) })
			expectBitIdentical(t, tc.name+"/ShiftedH0", nb, got, want)

			copy(want, prior)
			tc.op.AccumHpBlock(coefP, v, want, nb)
			got = soaRoundTrip(tc.op, v, prior, nb,
				func(tb *SoATables[float64], vb, ob *soa.Block[float64]) {
					tb.AccumHpPlanes(real(coefP), imag(coefP), vb, ob)
				})
			expectBitIdentical(t, tc.name+"/AccumHp", nb, got, want)

			copy(want, prior)
			tc.op.AccumHmBlock(coefM, v, want, nb)
			got = soaRoundTrip(tc.op, v, prior, nb,
				func(tb *SoATables[float64], vb, ob *soa.Block[float64]) {
					tb.AccumHmPlanes(real(coefM), imag(coefM), vb, ob)
				})
			expectBitIdentical(t, tc.name+"/AccumHm", nb, got, want)
		}
	}
}

// TestSoAApplyZeroAlloc extends the blocked zero-allocation pins to the SoA
// kernels, including widths beyond blockStackCols.
func TestSoAApplyZeroAlloc(t *testing.T) {
	op := alCellDims(t, 10, 6, 10, 4)
	n := op.N()
	for _, nb := range []int{4, blockStackCols + 16} {
		v64 := soa.NewBlock[float64](n, nb)
		o64 := soa.NewBlock[float64](n, nb)
		kernels := []struct {
			name string
			fn   func()
		}{
			{"ApplyShiftedH0Planes", func() { op.ApplyShiftedH0Planes(0.5, v64, o64) }},
			{"AccumHpPlanes", func() { op.AccumHpPlanes(0.3, -0.2, v64, o64) }},
			{"AccumHmPlanes", func() { op.AccumHmPlanes(-0.1, 0.4, v64, o64) }},
		}
		for _, k := range kernels {
			if allocs := testing.AllocsPerRun(5, k.fn); allocs != 0 {
				t.Errorf("nb=%d: %s allocates %.0f times per call, want 0", nb, k.name, allocs)
			}
		}
	}
}
