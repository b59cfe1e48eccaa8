package linsolve

import (
	"fmt"
	"testing"

	"cbs/internal/contour"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/tb"
)

// benchAlPz builds the fixture of the two layer benchmarks below: the
// Al(100) 10x10x10 FD operator (n = 1000) with P(z) and its adjoint at the
// first outer quadrature point of the paper's ring.
func benchAlPz(b *testing.B) (n int, apply, applyD BlockApplySoA[float64]) {
	st, err := lattice.AlBulk100(1)
	if err != nil {
		b.Fatal(err)
	}
	op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 10, Ny: 10, Nz: 10, Nf: 4})
	if err != nil {
		b.Fatal(err)
	}
	const eAl = 0.14051708327506812 // Fermi level of this grid (bench/testdata/refs.json)
	ring, err := contour.NewRing(0.5, 32)
	if err != nil {
		b.Fatal(err)
	}
	z := ring.Outer[0].Z
	p, t := qep.NewBackend(op, eAl), op.SoA64()
	apply = func(v, out *soa.Block[float64]) { qep.ApplyBlockSoA(p, t, z, v, out) }
	applyD = func(v, out *soa.Block[float64]) { qep.ApplyDaggerBlockSoA(p, t, z, v, out) }
	return op.N(), apply, applyD
}

// BenchmarkApplyBlockSoA is the layer benchmark behind the harness's
// qep.pz_block_ns_per_col: one P(z) block apply on split planes (row
// stencil kernel, cell couplings, projector gather/scatter) at the sweep's
// block width (4), 8, the paper's (16) and twice that: the stencil's
// four-point tiles, two vectors a point, and one and two 16-column tiles a
// point. ns/col is wall time per apply per column; CBS_NO_AVX2=1 times the
// scalar arm.
func BenchmarkApplyBlockSoA(b *testing.B) {
	n, apply, _ := benchAlPz(b)
	for _, nb := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			v := randBlock(n, nb, 1)
			out := soa.NewBlock[float64](n, nb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(v, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/col")
		})
	}
}

// BenchmarkBlockBiCGDualSoA is the layer benchmark behind the harness's
// linsolve.ns_per_iter_col: one blocked dual solve of P(z) X = V on the
// same operator and quadrature point, at the same two block widths,
// reusing one workspace; and the same solve on the tight-binding slab of
// transport_tb (8 x 7 sites, nb 8, E = -5.2 Ha). ns/iter-col is wall time
// per Krylov iteration per column; CBS_NO_AVX2=1 times the scalar arm.
func BenchmarkBlockBiCGDualSoA(b *testing.B) {
	n, apply, applyD := benchAlPz(b)
	for _, nb := range []int{4, 16} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			benchBlockSolve(b, n, nb, apply, applyD)
		})
	}
	b.Run("tb-slab-8x7/nb=8", func(b *testing.B) {
		slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 7, Hopping: -1, A: 1})
		if err != nil {
			b.Fatal(err)
		}
		ring, err := contour.NewRing(0.5, 32)
		if err != nil {
			b.Fatal(err)
		}
		p, z := qep.NewBackend(slab, -5.2), ring.Outer[0].Z
		benchBlockSolve(b, slab.N(), 8,
			func(v, out *soa.Block[float64]) { qep.ApplyBlockSoA(p, slab, z, v, out) },
			func(v, out *soa.Block[float64]) { qep.ApplyDaggerBlockSoA(p, slab, z, v, out) })
	})
}

func benchBlockSolve(b *testing.B, n, nb int, apply, applyD BlockApplySoA[float64]) {
	v := randBlock(n, nb, 1)
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	ws := NewWorkspaceSoA[float64](n, nb)
	opts := Options{Tol: 1e-10}
	iterCols := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Zero()
		xd.Zero()
		for _, r := range BlockBiCGDualSoA(apply, applyD, v, v, x, xd, opts, nil, ws) {
			if !r.Converged {
				b.Fatalf("column did not converge: %+v", r)
			}
			iterCols += r.Iterations
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iterCols), "ns/iter-col")
}

// BenchmarkKrylovStep is the layer benchmark of one block dual-BiCG
// iteration's vector work outside the two applies: <pd, q>, the alpha
// update with the residual sums, their reduction bookkeeping and the beta
// update, on n = 1000 rows (the Al(100) 10x10x10 grid) at block widths 4, 8
// and 16. ns/col is wall time per iteration per column; CBS_NO_AVX2=1 times
// the scalar arm.
func BenchmarkKrylovStep(b *testing.B) {
	const n = 1000
	for _, nb := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			w := NewWorkspaceSoA[float64](n, nb)
			w.x, w.xd = randBlock(n, nb, 1), randBlock(n, nb, 2)
			for i, blk := range []*soa.Block[float64]{w.r, w.rd, w.p, w.pd, w.q, w.qd} {
				src := randBlock(n, nb, int64(3+i))
				copy(blk.Re, src.Re)
				copy(blk.Im, src.Im)
			}
			alpha, beta, dots := make([]complex128, nb), make([]complex128, nb), make([]complex128, nb)
			nrm, nrmD := make([]float64, nb), make([]float64, nb)
			active, stop := make([]bool, nb), make([]bool, nb)
			for c := range alpha {
				// |beta| < 1 keeps the repeated direction update bounded.
				alpha[c], beta[c] = complex(0.01, -0.02), complex(0.3, 0.2)
				active[c] = true
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.directionDots(dots); err != nil {
					b.Fatal(err)
				}
				w.alphaStep(alpha)
				if err := w.residuals(dots, nrm, nrmD, stop); err != nil {
					b.Fatal(err)
				}
				w.betaStep(beta, active)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/col")
		})
	}
}
