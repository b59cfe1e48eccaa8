package linsolve

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cbs/internal/chaos"
	"cbs/internal/soa"
)

// testOp is a synthetic operator (complex diagonal + real nearest-neighbour
// coupling on a ring) whose single-vector and plane applications are the
// same arithmetic operation for operation, so BiCGDual and BlockBiCGDualSoA
// see bit-identical matvecs. The diagonal dominates, so BiCG converges
// quickly; dual = conjugate diagonal (the operator is complex-symmetric
// under this coupling).
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

func (t *testOp) apply(dagger bool) Apply {
	return func(v, out []complex128) {
		n := len(t.dRe)
		for i := 0; i < n; i++ {
			di := complex(t.dRe[i], t.dIm[i])
			if dagger {
				di = conj(di)
			}
			out[i] = di*v[i] + complex(t.c, 0)*(v[(i+1)%n]+v[(i-1+n)%n])
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
				// Same operation order as the complex expression:
				// d*v (4 mults, 2 adds), then c*(p+m), then the sum.
				out.Re[j] = (dr*vr - di*vi) + t.c*pr
				out.Im[j] = (dr*vi + di*vr) + t.c*pi
			}
		}
	}
}

// TestBlockBiCGDualSoAParity: the block solver on the column-lane kernels
// must reproduce per-column BiCGDual by exact equality — solutions,
// residuals, iteration and matvec counts, flags, history — on every block
// width the kernels distinguish (whole vectors, scalar-lane tails, both)
// and random n, with one column broken down by the chaos injector at the
// start (frozen at its initial guess; the reference draws at the matching
// ChaosSite.Col) and one stopped mid-solve by its group's majority (frozen
// with live data; the reference stops through Options.Group) while the rest
// run to convergence.
func TestBlockBiCGDualSoAParity(t *testing.T) {
	sizes := rand.New(rand.NewSource(5))
	for _, nb := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17} {
		n := 20 + sizes.Intn(180)
		op := newTestOp(n, int64(3+nb))
		b := randBlock(n, nb, int64(50+nb))
		opts := Options{Tol: 1e-12, LooseTol: 1e-4, MaxIter: 500, History: true}
		broken, stopped := -1, -1
		if nb >= 2 {
			broken = nb - 1
			opts.Chaos = chaos.New(1, chaos.Config{Breakdown: 1, Columns: []int{broken}})
		}
		if nb >= 3 {
			stopped = 1
		}
		// Each solver gets its own group controllers: they count.
		newGroups := func() []*GroupStop {
			groups := make([]*GroupStop, nb)
			for c := range groups {
				groups[c] = NewGroupStop(4, true)
			}
			if stopped >= 0 {
				for k := 0; k < 3; k++ {
					groups[stopped].MarkConverged()
				}
			}
			return groups
		}

		xs := soa.NewBlock[float64](n, nb)
		xds := soa.NewBlock[float64](n, nb)
		rs := BlockBiCGDualSoA(op.applySoA(false), op.applySoA(true), b, b, xs, xds, opts, newGroups(), nil)

		refGroups := newGroups()
		for c, got := range rs {
			bc := blockCol(b, c)
			xc, xdc := make([]complex128, n), make([]complex128, n)
			copts := opts
			copts.Group = refGroups[c]
			copts.ChaosSite.Col += c
			copts.History = c == 0
			want := BiCGDual(op.apply(false), op.apply(true), bc, bc, xc, xdc, copts)

			if c == broken && !(got.Breakdown && got.Iterations == 0) {
				t.Errorf("nb=%d: column %d did not break down at the start: %+v", nb, c, got)
			}
			if c == stopped && !(got.StoppedEarly && got.Iterations > 0) {
				t.Errorf("nb=%d: column %d was not group-stopped mid-solve: %+v", nb, c, got)
			}
			if c != broken && c != stopped && !got.Converged {
				t.Errorf("nb=%d: column %d did not converge: %+v", nb, c, got)
			}
			if !sameResult(got, want) {
				t.Fatalf("nb=%d n=%d col %d: result mismatch: per-column %+v, block %+v", nb, n, c, want, got)
			}
			if c == 0 {
				wh, gh := want.History, got.History
				if len(wh) != len(gh) {
					t.Fatalf("nb=%d: history length mismatch %d vs %d", nb, len(wh), len(gh))
				}
				for i := range wh {
					if wh[i] != gh[i] {
						t.Fatalf("nb=%d: history[%d] differs: %g vs %g", nb, i, wh[i], gh[i])
					}
				}
			}
			gx, gxd := blockCol(xs, c), blockCol(xds, c)
			for i := range xc {
				if xc[i] != gx[i] || xdc[i] != gxd[i] {
					t.Fatalf("nb=%d n=%d col %d: solution element %d differs: per-column (%v,%v), block (%v,%v)", nb, n, c, i, xc[i], xdc[i], gx[i], gxd[i])
				}
			}
		}
	}
}

// TestSoASolverZeroAlloc pins the steady-state zero-allocation contract of
// the block solver with a reused workspace, on a whole-vector width and on
// one with a scalar-lane tail.
func TestSoASolverZeroAlloc(t *testing.T) {
	for _, nb := range []int{4, 7} {
		n := 64
		op := newTestOp(n, 9)
		b := randBlock(n, nb, 70)
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
			t.Errorf("nb=%d: BlockBiCGDualSoA allocates %.0f times per solve, want 0", nb, allocs)
		}
	}
}

// TestWorkspaceSoAMemoryBytes: the reported size is the sum of what Reserve
// allocates, the per-column coefficient, dot, lane-mask and reduction
// scratch included.
func TestWorkspaceSoAMemoryBytes(t *testing.T) {
	w := NewWorkspaceSoA[float64](10, 5)
	want := int64(0)
	for _, b := range []*soa.Block[float64]{w.r, w.rd, w.p, w.pd, w.q, w.qd} {
		want += b.MemoryBytes()
	}
	want += int64(cap(w.rho)+cap(w.alpha)+cap(w.beta)+cap(w.dots)+cap(w.sums)) * 16
	for _, co := range []soa.ColCoef[float64]{w.alphaCo, w.betaCo} {
		want += int64(cap(co.Re)+cap(co.Im)+cap(co.Mask)) * 8
	}
	want += int64(cap(w.dRe)+cap(w.dIm)+cap(w.n2)+cap(w.n2d)) * 8
	want += int64(cap(w.nrmB)+cap(w.nrmBD)+cap(w.rel)+cap(w.relD)+cap(w.nrm2)+cap(w.nrm2d)) * 8
	want += int64(cap(w.active) + cap(w.stop))
	if got := w.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, allocated buffers sum to %d", got, want)
	}
}

// TestReduceErrorKeepsSolutionUpdate: a reduction that fails at the
// residual step of the first iteration ends the solve with x and xd
// holding that iteration's update — the bits a solve capped at one
// iteration leaves — though the update's second half runs after the
// reduction.
func TestReduceErrorKeepsSolutionUpdate(t *testing.T) {
	const n, nb = 23, 6
	op := newTestOp(n, 7)
	a, ad := op.applySoA(false), op.applySoA(true)
	b := randBlock(n, nb, 8)
	solve := func(maxIter, failAt int) (*soa.Block[float64], *soa.Block[float64], error) {
		x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
		calls := 0
		reduce := func([]complex128) error {
			calls++
			if calls == failAt {
				return errors.New("reduce failed")
			}
			return nil
		}
		_, err := NewWorkspaceSoA[float64](n, nb).SolveRank(a, ad, b, b, x, xd, n,
			Options{Tol: 1e-14, MaxIter: maxIter}, nil, reduce)
		return x, xd, err
	}
	wantX, wantXD, err := solve(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reductions: the norms of b, the initial residuals, then per
	// iteration the direction dots and the residuals.
	gotX, gotXD, err := solve(100, 4)
	if err == nil {
		t.Fatal("the failed reduction was not returned")
	}
	for _, pl := range [][2][]float64{{gotX.Re, wantX.Re}, {gotX.Im, wantX.Im}, {gotXD.Re, wantXD.Re}, {gotXD.Im, wantXD.Im}} {
		for i := range pl[1] {
			if math.Float64bits(pl[0][i]) != math.Float64bits(pl[1][i]) {
				t.Fatalf("element %d = %g after the failed reduction, %g after one full iteration", i, pl[0][i], pl[1][i])
			}
		}
	}
}
