package linsolve

import (
	"math/rand"
	"testing"

	"cbs/internal/soa"
)

// testOp is a synthetic operator (complex diagonal + real nearest-neighbour
// coupling on a ring) whose AoS and SoA applications are the same
// arithmetic operation for operation, so BlockBiCGDual and
// BlockBiCGDualSoA see bit-identical matvecs. The diagonal dominates, so
// BiCG converges quickly; dual = conjugate diagonal (the operator is
// complex-symmetric under this coupling).
type testOp struct {
	dRe, dIm []float64
	c        float64
}

func newTestOp(n int, seed int64) *testOp {
	rng := rand.New(rand.NewSource(seed))
	op := &testOp{dRe: make([]float64, n), dIm: make([]float64, n), c: 0.1}
	for i := 0; i < n; i++ {
		op.dRe[i] = 2 + rng.Float64()
		op.dIm[i] = rng.Float64() - 0.5
	}
	return op
}

func (t *testOp) applyAoS(dagger bool) BlockApply {
	return func(v, out []complex128, nb int) {
		n := len(t.dRe)
		for i := 0; i < n; i++ {
			di := complex(t.dRe[i], t.dIm[i])
			if dagger {
				di = conj(di)
			}
			ip := (i + 1) % n
			im := (i - 1 + n) % n
			for k := 0; k < nb; k++ {
				out[i*nb+k] = di*v[i*nb+k] + complex(t.c, 0)*(v[ip*nb+k]+v[im*nb+k])
			}
		}
	}
}

func (t *testOp) applySoA(dagger bool) BlockApplySoA[float64] {
	return func(v, out *soa.Block[float64]) {
		n := len(t.dRe)
		nb := v.NB()
		for i := 0; i < n; i++ {
			dr, di := t.dRe[i], t.dIm[i]
			if dagger {
				di = -di
			}
			ip := (i + 1) % n
			im := (i - 1 + n) % n
			for k := 0; k < nb; k++ {
				j := i*nb + k
				vr, vi := v.Re[j], v.Im[j]
				pr := v.Re[ip*nb+k] + v.Re[im*nb+k]
				pi := v.Im[ip*nb+k] + v.Im[im*nb+k]
				// Same operation order as the AoS complex expression:
				// d*v (4 mults, 2 adds), then c*(p+m), then the sum.
				out.Re[j] = (dr*vr - di*vi) + t.c*pr
				out.Im[j] = (dr*vi + di*vr) + t.c*pi
			}
		}
	}
}

// TestBlockBiCGDualSoAParity: at float64 the SoA solver must reproduce the
// AoS solver bit-for-bit — solutions, residuals, iteration counts and
// convergence flags.
func TestBlockBiCGDualSoAParity(t *testing.T) {
	n := 120
	op := newTestOp(n, 3)
	for _, nb := range []int{1, 4, 7} {
		rng := rand.New(rand.NewSource(int64(50 + nb)))
		b := make([]complex128, n*nb)
		for i := range b {
			b[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		x := make([]complex128, n*nb)
		xd := make([]complex128, n*nb)
		opts := Options{Tol: 1e-12, MaxIter: 500, History: true}
		rs := BlockBiCGDual(op.applyAoS(false), op.applyAoS(true), b, b, x, xd, nb, opts, nil, nil)

		bb := soa.NewBlock[float64](n, nb)
		soa.Pack(bb, b)
		xs := soa.NewBlock[float64](n, nb)
		xds := soa.NewBlock[float64](n, nb)
		srs := BlockBiCGDualSoA(op.applySoA(false), op.applySoA(true), bb, bb, xs, xds, opts, nil, nil)

		for c := range rs {
			if rs[c].Iterations != srs[c].Iterations || rs[c].Converged != srs[c].Converged ||
				rs[c].Residual != srs[c].Residual || rs[c].DualResidual != srs[c].DualResidual {
				t.Fatalf("nb=%d col %d: result mismatch: aos %+v, soa %+v", nb, c, rs[c], srs[c])
			}
		}
		if len(rs[0].History) != len(srs[0].History) {
			t.Fatalf("nb=%d: history length mismatch %d vs %d", nb, len(rs[0].History), len(srs[0].History))
		}
		for i := range rs[0].History {
			if rs[0].History[i] != srs[0].History[i] {
				t.Fatalf("nb=%d: history[%d] differs: %g vs %g", nb, i, rs[0].History[i], srs[0].History[i])
			}
		}
		gx := make([]complex128, n*nb)
		gxd := make([]complex128, n*nb)
		soa.Unpack(gx, xs)
		soa.Unpack(gxd, xds)
		for i := range x {
			if x[i] != gx[i] || xd[i] != gxd[i] {
				t.Fatalf("nb=%d: solution element %d differs: aos (%v,%v), soa (%v,%v)", nb, i, x[i], xd[i], gx[i], gxd[i])
			}
		}
	}
}

// TestSoASolverZeroAlloc pins the steady-state zero-allocation contract of
// the SoA solver with a preallocated workspace.
func TestSoASolverZeroAlloc(t *testing.T) {
	n := 64
	nb := 4
	op := newTestOp(n, 9)
	b := soa.NewBlock[float64](n, nb)
	rng := rand.New(rand.NewSource(70))
	for i := range b.Re {
		b.Re[i] = rng.Float64()*2 - 1
		b.Im[i] = rng.Float64()*2 - 1
	}
	x := soa.NewBlock[float64](n, nb)
	xd := soa.NewBlock[float64](n, nb)
	a, ad := op.applySoA(false), op.applySoA(true)
	ws := NewWorkspaceSoA[float64](n, nb)
	opts := Options{Tol: 1e-10, MaxIter: 300}

	if allocs := testing.AllocsPerRun(5, func() {
		x.Zero()
		xd.Zero()
		BlockBiCGDualSoA(a, ad, b, b, x, xd, opts, nil, ws)
	}); allocs != 0 {
		t.Errorf("BlockBiCGDualSoA allocates %.0f times per solve, want 0", allocs)
	}
}
