package hamiltonian

import (
	"math/cmplx"
	"math/rand"
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

// randPlanes fills an n x nb block with deterministic random data.
func randPlanes(n, nb int, seed int64) *soa.Block[float64] {
	rng := rand.New(rand.NewSource(seed))
	b := soa.NewBlock[float64](n, nb)
	for i := range b.Re {
		b.Re[i], b.Im[i] = rng.Float64()*2-1, rng.Float64()*2-1
	}
	return b
}

// planeCol extracts column c of a block as a complex vector.
func planeCol(b *soa.Block[float64], c int) []complex128 {
	nb := b.NB()
	out := make([]complex128, b.N())
	for i := range out {
		out[i] = complex(b.Re[i*nb+c], b.Im[i*nb+c])
	}
	return out
}

// kernelCase is one operator of the kernel test matrix and the block widths
// it is applied at.
type kernelCase struct {
	name string
	op   *Operator
	nbs  []int
}

// kernelCases is the grid/width matrix the plane kernels are checked on:
// the bench grid, axes that wrap more than once under the stencil
// (Nx, Ny < Nf), Nz = Nf where every in-cell z neighbour of some plane is
// absent, and every half-width from 1 to 6; the widths cover the sweep's
// single vector (4), the paper's 16, the lane tails around them, and one
// column past the projector reduction's stack chunk.
func kernelCases(t *testing.T) []kernelCase {
	return []kernelCase{
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
}

// fusedTol bounds |plane - reference| per element for the fused plane
// kernels, whose shift or coefficient enters before the sum over stencil
// and projector terms where the single-vector oracle applies it after.
// The worst difference on the kernelCases matrix is about 1e-14.
const fusedTol = 1e-13

// checkFused runs a fused plane kernel on every case and width of the
// matrix, from a random prior block in out, and compares each column with
// want(v_c, prior_c) computed by the single-vector oracle loops.
func checkFused(t *testing.T, name string, kernel func(tab *SoATables[float64], v, out *soa.Block[float64]), want func(op *Operator, v, prior []complex128) []complex128) {
	t.Helper()
	for _, tc := range kernelCases(t) {
		n := tc.op.N()
		for _, nb := range tc.nbs {
			v := randPlanes(n, nb, int64(300+nb))
			prior := randPlanes(n, nb, int64(900+nb))
			out := soa.NewBlock[float64](n, nb)
			copy(out.Re, prior.Re)
			copy(out.Im, prior.Im)
			kernel(tc.op.SoA64(), v, out)
			for c := 0; c < nb; c++ {
				w := want(tc.op, planeCol(v, c), planeCol(prior, c))
				for i, g := range planeCol(out, c) {
					if cmplx.Abs(g-w[i]) > fusedTol {
						t.Fatalf("%s/%s nb=%d col %d row %d: planes %v, per column %v", tc.name, name, nb, c, i, g, w[i])
					}
				}
			}
		}
	}
}

// TestSoAKernelsBitIdentical: the unshifted H0 plane apply must equal the
// single-vector oracle loop oracleH0 bit for bit, column by column, on every case and
// width of the kernel matrix and on whichever arm of the kernel dispatch
// this run has (make test-noavx2 runs the other).
func TestSoAKernelsBitIdentical(t *testing.T) {
	for _, tc := range kernelCases(t) {
		n := tc.op.N()
		ref := make([]complex128, n)
		for _, nb := range tc.nbs {
			v := randPlanes(n, nb, int64(300+nb))
			out := soa.NewBlock[float64](n, nb)
			tc.op.SoA64().ApplyH0Block(v, out)
			for c := 0; c < nb; c++ {
				oracleH0(tc.op, planeCol(v, c), ref)
				for i, g := range planeCol(out, c) {
					if g != ref[i] {
						t.Fatalf("%s nb=%d col %d row %d: planes %v, oracle %v", tc.name, nb, c, i, g, ref[i])
					}
				}
			}
		}
	}
}

// TestApplyBlockMatchesPerColumn: the shifted H0 plane apply, the H0 part of
// P(z), must reproduce shift*v - H0 v (the oracle loop) column by column to fusedTol on
// the kernel matrix.
func TestApplyBlockMatchesPerColumn(t *testing.T) {
	const shift = 0.37
	checkFused(t, "ShiftedH0", func(tab *SoATables[float64], v, out *soa.Block[float64]) {
		tab.ApplyShiftedH0Planes(shift, v, out)
	}, func(op *Operator, v, _ []complex128) []complex128 {
		h0v := make([]complex128, len(v))
		oracleH0(op, v, h0v)
		for i := range v {
			v[i] = complex(shift, 0)*v[i] - h0v[i]
		}
		return v
	})
}

// TestAccumBlockMatchesAxpy: the fused accumulate plane kernels,
// out += coef * H± V, must equal "apply then axpy" with the single-vector
// oracle loops and the same coefficient, column by column to fusedTol on
// the kernel matrix.
func TestAccumBlockMatchesAxpy(t *testing.T) {
	for _, k := range []struct {
		name   string
		coef   complex128
		kernel func(tab *SoATables[float64], cr, ci float64, v, out *soa.Block[float64])
		single func(op *Operator, v, out []complex128)
	}{
		{"AccumHp", complex(0.3, -0.8), (*SoATables[float64]).AccumHpPlanes, oracleHp},
		{"AccumHm", complex(-0.45, 0.15), (*SoATables[float64]).AccumHmPlanes, oracleHm},
	} {
		checkFused(t, k.name, func(tab *SoATables[float64], v, out *soa.Block[float64]) {
			k.kernel(tab, real(k.coef), imag(k.coef), v, out)
		}, func(op *Operator, v, prior []complex128) []complex128 {
			hv := make([]complex128, len(v))
			k.single(op, v, hv)
			for i := range prior {
				prior[i] += k.coef * hv[i]
			}
			return prior
		})
	}
}

// TestApplyBlockPanics: mis-shaped plane blocks must be rejected.
func TestApplyBlockPanics(t *testing.T) {
	op := alCell(t, 6)
	n := op.N()
	for name, apply := range map[string]func(){
		"short v":    func() { op.ApplyShiftedH0Planes(0, soa.NewBlock[float64](n-1, 2), soa.NewBlock[float64](n, 2)) },
		"width":      func() { op.AccumHpPlanes(1, 0, soa.NewBlock[float64](n, 2), soa.NewBlock[float64](n, 3)) },
		"short out":  func() { op.AccumHmPlanes(1, 0, soa.NewBlock[float64](n, 2), soa.NewBlock[float64](n-1, 2)) },
		"H0 short v": func() { op.SoA64().ApplyH0Block(soa.NewBlock[float64](n-1, 2), soa.NewBlock[float64](n, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mis-shaped block did not panic", name)
				}
			}()
			apply()
		}()
	}
}

// TestSoAApplyZeroAlloc pins the plane kernels at zero allocations per
// call, including widths beyond blockStackCols where the nonlocal reduction
// must chunk columns instead of falling back to the heap.
func TestSoAApplyZeroAlloc(t *testing.T) {
	op := alCellDims(t, 10, 6, 10, 4)
	n := op.N()
	tab := op.SoA64()
	for _, nb := range []int{4, blockStackCols + 16} {
		v64 := soa.NewBlock[float64](n, nb)
		o64 := soa.NewBlock[float64](n, nb)
		kernels := []struct {
			name string
			fn   func()
		}{
			{"ApplyH0Block", func() { tab.ApplyH0Block(v64, o64) }},
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
