package core

import (
	"context"
	"testing"

	"cbs/internal/bandstructure"
	"cbs/internal/chaos"
	"cbs/internal/linsolve"
	"cbs/internal/operator"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/tb"
)

// interleavedPlanes serves a backend's plane applies through its
// interleaved blocked applies (unpack, apply, repack): the reference
// arithmetic the plane kernels must reproduce.
type interleavedPlanes struct {
	operator.Backend
}

func (b interleavedPlanes) run(v, out *soa.Block[float64], apply func(vi, oi []complex128, nb int)) {
	vi, oi := make([]complex128, v.Len()), make([]complex128, out.Len())
	soa.Unpack(vi, v)
	soa.Unpack(oi, out)
	apply(vi, oi, v.NB())
	soa.Pack(out, oi)
}

func (b interleavedPlanes) ApplyShiftedH0Planes(shift float64, v, out *soa.Block[float64]) {
	b.run(v, out, func(vi, oi []complex128, nb int) { b.ApplyShiftedH0Block(shift, vi, oi, nb) })
}

func (b interleavedPlanes) AccumHpPlanes(cr, ci float64, v, out *soa.Block[float64]) {
	b.run(v, out, func(vi, oi []complex128, nb int) { b.AccumHpBlock(complex(cr, ci), vi, oi, nb) })
}

func (b interleavedPlanes) AccumHmPlanes(cr, ci float64, v, out *soa.Block[float64]) {
	b.run(v, out, func(vi, oi []complex128, nb int) { b.AccumHmBlock(complex(cr, ci), vi, oi, nb) })
}

// TestSoAKernelsMatchAoSBitwise: every backend's plane applies are the same
// arithmetic as its interleaved applies in the same order, so the whole
// Solve — eigenvalues, vectors, residuals, iteration counts — must be
// bit-identical to a Solve whose plane applies run through the interleaved
// kernels, on the FD grid and on a tight-binding slab.
func TestSoAKernelsMatchAoSBitwise(t *testing.T) {
	op := smallAl(t, 8)
	ef, err := bandstructure.FermiLevel(op, 4)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 7, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbOpts := DefaultOptions()
	tbOpts.Nrh, tbOpts.Nmm = 8, 7
	for _, tc := range []struct {
		name string
		b    operator.Backend
		e    float64
		opts Options
	}{
		{"fd", op, ef, testOptions()},
		{"tb-slab", slab, -5.2, tbOpts},
	} {
		aos, err := Solve(qep.NewBackend(interleavedPlanes{tc.b}, tc.e), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		soaRes, err := Solve(qep.NewBackend(tc.b, tc.e), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if aos.Rank != soaRes.Rank {
			t.Fatalf("%s: rank differs: aos %d, soa %d", tc.name, aos.Rank, soaRes.Rank)
		}
		if len(aos.AllPairs) != len(soaRes.AllPairs) {
			t.Fatalf("%s: pair count differs: aos %d, soa %d", tc.name, len(aos.AllPairs), len(soaRes.AllPairs))
		}
		for i := range aos.AllPairs {
			pa, ps := aos.AllPairs[i], soaRes.AllPairs[i]
			if pa.Lambda != ps.Lambda || pa.Residual != ps.Residual {
				t.Errorf("%s: pair %d differs: aos (%v, %g), soa (%v, %g)", tc.name, i, pa.Lambda, pa.Residual, ps.Lambda, ps.Residual)
			}
			for j := range pa.Psi {
				if pa.Psi[j] != ps.Psi[j] {
					t.Fatalf("%s: pair %d component %d differs: %v vs %v", tc.name, i, j, pa.Psi[j], ps.Psi[j])
				}
			}
		}
		for j := range aos.Points {
			pa, ps := aos.Points[j], soaRes.Points[j]
			if pa.Iterations != ps.Iterations || pa.Converged != ps.Converged {
				t.Errorf("%s: point %d stats differ: aos %+v, soa %+v", tc.name, j, pa, ps)
			}
		}
		if aos.MatVecs != soaRes.MatVecs {
			t.Errorf("%s: matvec count differs: aos %d, soa %d", tc.name, aos.MatVecs, soaRes.MatVecs)
		}
	}
}

// TestPointLoopZeroAlloc pins the steady state of the point loop's block
// solve at zero allocations on both backends: after the first point, a
// worker's solve reuses its planes, workspace and apply closures.
func TestPointLoopZeroAlloc(t *testing.T) {
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 7, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *qep.Problem
	}{
		{"fd", qep.New(smallAl(t, 8), 0.1)},
		{"tb", qep.NewBackend(slab, -5.2)},
	} {
		const nb = 4
		b := soa.NewBlock[float64](tc.q.Dim(), nb)
		for i := range b.Re {
			b.Re[i], b.Im[i] = float64(i%7)-3, float64(i%5)-2
		}
		w := newBlockWorker(tc.q, b, nil)
		groups := make([]*linsolve.GroupStop, nb)
		for c := range groups {
			groups[c] = linsolve.NewGroupStop(4, true)
		}
		lopts := linsolve.Options{Tol: 1e-10, Chaos: chaos.New(1, chaos.Config{}), ChaosSite: chaos.Site{Point: 2}}
		z := complex(0.3, 0.9)
		if allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := w.solve(context.Background(), z, lopts, groups); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a point's block solve allocates %.0f times, want 0", tc.name, allocs)
		}
	}
}
