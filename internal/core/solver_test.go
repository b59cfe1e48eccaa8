package core

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"

	"cbs/internal/bandstructure"
	"cbs/internal/dist"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/ssm"
	"cbs/internal/tb"
)

// smallAl builds the test system: bulk Al(100) on a coarse grid.
func smallAl(t *testing.T, nz int) *hamiltonian.Operator {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 6, Ny: 6, Nz: nz, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// testOptions returns fast solver settings for the small test systems.
func testOptions() Options {
	o := DefaultOptions()
	o.Nint = 16
	o.Nmm = 6
	o.Nrh = 8
	return o
}

// TestCBSMatchesBandStructure is the Fig. 6 consistency check in miniature:
// at an energy taken from the conventional band structure E_n(k0), the CBS
// must contain the propagating solution lambda = e^{i k0 a}.
func TestCBSMatchesBandStructure(t *testing.T) {
	op := smallAl(t, 8)
	a := op.G.Lz()
	k0 := 0.55 * math.Pi / a // generic interior point of the BZ
	bands, err := bandstructure.Bands(op, []float64{k0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a low-lying band (valence-like state, well separated).
	e := bands[0][2]
	q := qep.New(op, e)
	res, err := Solve(q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatalf("no CBS eigenpairs found at E=%g (rank %d, sigma %v)", e, res.Rank, firstFew(res.Sigma))
	}
	want := qep.LambdaFromK(complex(k0, 0), a)
	best := math.Inf(1)
	for _, p := range res.Pairs {
		if d := cmplx.Abs(p.Lambda - want); d < best {
			best = d
		}
	}
	if best > 1e-5 {
		t.Errorf("propagating state not recovered: min |lambda - e^{ik0 a}| = %g", best)
		for _, p := range res.Pairs {
			t.Logf("  lambda = %v  |lambda| = %.6f  res = %.2e", p.Lambda, cmplx.Abs(p.Lambda), p.Residual)
		}
	}
	// Residual filter must hold for every reported pair.
	for _, p := range res.Pairs {
		if p.Residual > testOptions().ResidualTol {
			t.Errorf("pair %v exceeds the residual filter: %g", p.Lambda, p.Residual)
		}
	}
	// Timings recorded, solve dominates (Table 1 property).
	if res.Timings.SolveLinear <= 0 || res.Timings.Extract <= 0 {
		t.Error("timings not recorded")
	}
	if res.MatVecs == 0 {
		t.Error("matvec counter not recorded")
	}
}

// TestSpectrumPairing: eigenvalues of the QEP at real energy come in
// (lambda, 1/conj(lambda)) pairs -- the identity P(z)^dagger = P(1/conj(z))
// at work. Every reported annulus eigenvalue must have its partner.
func TestSpectrumPairing(t *testing.T) {
	if testing.Short() {
		t.Skip("long solve at EF")
	}
	op := smallAl(t, 8)
	ef, err := bandstructure.FermiLevel(op, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := qep.New(op, ef)
	res, err := Solve(q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Skip("no eigenpairs in the annulus at EF on this coarse grid")
	}
	for _, p := range res.Pairs {
		partner := 1 / cmplx.Conj(p.Lambda)
		best := math.Inf(1)
		for _, p2 := range res.Pairs {
			if d := cmplx.Abs(p2.Lambda - partner); d < best {
				best = d
			}
		}
		if best > 1e-4 {
			t.Errorf("eigenvalue %v lacks its 1/conj partner (closest %g)", p.Lambda, best)
		}
	}
}

// TestParallelLayersAgree: every parallel configuration must produce the
// same spectrum as the serial run.
func TestParallelLayersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("long multi-config solve; TestGroupStopConcurrentBlocked covers concurrency in -short runs")
	}
	op := smallAl(t, 16)
	ef, err := bandstructure.FermiLevel(op, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qep.New(op, ef)
	opts := testOptions()
	opts.Nint = 8
	opts.Nmm = 4
	opts.Nrh = 6

	serial, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := lambdaSet(serial)
	configs := []Parallel{
		{Top: 3, Mid: 1, Ndm: 1},
		{Top: 1, Mid: 4, Ndm: 1},
		{Top: 2, Mid: 2, Ndm: 2},
	}
	for _, cfg := range configs {
		o := opts
		o.Parallel = cfg
		r, err := Solve(q, o)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		got := lambdaSet(r)
		if len(got) != len(want) {
			t.Errorf("%+v: %d eigenvalues, serial found %d", cfg, len(got), len(want))
			continue
		}
		// Different parallel paths take different floating-point routes
		// through BiCG (reduction order) and the coarse Nint=8 extraction
		// amplifies that; 1e-4 is well below any physical scale here.
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-4 {
				t.Errorf("%+v: eigenvalue %d: %v vs serial %v", cfg, i, got[i], want[i])
			}
		}
		if cfg.Ndm > 1 && r.CommBytes == 0 {
			t.Errorf("%+v: no bottom-layer traffic recorded", cfg)
		}
	}
}

// TestGroupStopConcurrentBlocked exercises the majority early-stop rule
// through the blocked solver with both upper parallel layers active
// (Top > 1, Mid > 1): per-column GroupStop controllers are shared across
// concurrently solved quadrature points. Run under -race in CI. Eigenpair
// quality is still guaranteed by the residual filter (the paper's
// observation that stragglers sit near 1e-8 when the majority reaches
// 1e-10), so every reported pair must pass it.
func TestGroupStopConcurrentBlocked(t *testing.T) {
	op := smallAl(t, 8)
	ef, err := bandstructure.FermiLevel(op, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qep.New(op, ef)
	opts := testOptions()
	opts.Nint = 8
	opts.Nmm = 4
	opts.Nrh = 6
	opts.LoadBalanceStop = true
	opts.Parallel = Parallel{Top: 2, Mid: 2}
	res, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllPairs) == 0 {
		t.Fatal("no eigenpairs extracted")
	}
	for _, p := range res.Pairs {
		if p.Residual > opts.ResidualTol {
			t.Errorf("pair %v exceeds the residual filter: %g", p.Lambda, p.Residual)
		}
	}
	for j, ps := range res.Points {
		if ps.Converged+ps.StoppedEarly > opts.Nrh {
			t.Errorf("point %d: %d converged + %d stopped > Nrh=%d",
				j, ps.Converged, ps.StoppedEarly, opts.Nrh)
		}
		if ps.Iterations == 0 {
			t.Errorf("point %d: no iterations recorded", j)
		}
	}
	if res.MatVecs == 0 {
		t.Error("matvec counter not recorded")
	}
}

// lambdaSet returns the eigenvalues sorted for comparison.
func lambdaSet(r *Result) []complex128 {
	out := append([]complex128(nil), nil...)
	for _, p := range r.Pairs {
		out = append(out, p.Lambda)
	}
	sort.Slice(out, func(i, j int) bool {
		if real(out[i]) != real(out[j]) {
			return real(out[i]) < real(out[j])
		}
		return imag(out[i]) < imag(out[j])
	})
	return out
}

func firstFew(s []float64) []float64 {
	if len(s) > 6 {
		return s[:6]
	}
	return s
}

func TestSolveValidation(t *testing.T) {
	op := smallAl(t, 8)
	q := qep.New(op, 0.1)
	bad := DefaultOptions()
	bad.Nint = 0
	if _, err := Solve(q, bad); err == nil {
		t.Error("Nint=0 should fail")
	}
	big := DefaultOptions()
	big.Nrh = op.N()
	big.Nmm = 8
	if _, err := Solve(q, big); err == nil {
		t.Error("oversized subspace should fail")
	}
}

func TestHistoriesRecorded(t *testing.T) {
	op := smallAl(t, 8)
	q := qep.New(op, 0.1)
	opts := testOptions()
	opts.Nint = 4
	opts.Nmm = 2
	opts.Nrh = 4
	opts.TrackHistories = true
	res, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j, ps := range res.Points {
		if len(ps.History) == 0 {
			t.Errorf("point %d: no residual history", j)
		} else if ps.History[len(ps.History)-1] > opts.BiCGTol*10 {
			t.Errorf("point %d: final residual %g", j, ps.History[len(ps.History)-1])
		}
	}
}

func TestMemoryEstimateScalesLinearly(t *testing.T) {
	op8 := smallAl(t, 8)
	op16 := smallAl(t, 16)
	opts := testOptions()
	m8 := MemoryEstimate(qep.New(op8, 0), opts)
	m16 := MemoryEstimate(qep.New(op16, 0), opts)
	ratio := float64(m16) / float64(m8)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("memory estimate ratio %g for doubled N, want about 2 (O(MN))", ratio)
	}
}

// TestMemoryEstimateCountsAllocatedBuffers pins MemoryEstimate (the Fig. 4(b)
// input) to what a solve really allocates, on every backend and with the
// bottom layer decomposed: the capacities of one worker's buffers and of
// one top block's right-hand-side planes are summed and scaled by the
// worker and block counts; under Ndm > 1 the block solve's planes are the
// decomposed solver's (pinned to the ranks' buffers in package dist).
func TestMemoryEstimateCountsAllocatedBuffers(t *testing.T) {
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 8, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *qep.Problem
		ndm  int
	}{
		{"fd", qep.New(smallAl(t, 8), 0), 1},
		{"fd-dist", qep.New(smallAl(t, 8), 0), 2},
		{"tb", qep.NewBackend(slab, 0), 1},
	} {
		q := tc.q
		opts := testOptions()
		opts.Parallel = Parallel{Top: 2, Mid: 2, Ndm: tc.ndm}
		n, nb := q.Dim(), opts.Nrh/opts.Parallel.Top
		b := soa.NewBlock[float64](n, nb)
		var distSolver *dist.Solver
		if tc.ndm > 1 {
			if distSolver, err = dist.NewSolver(q, tc.ndm); err != nil {
				t.Fatal(err)
			}
		}
		w := newBlockWorker(q, b, distSolver)
		worker := int64(cap(w.x)+cap(w.xd)+cap(w.bcol)+cap(w.xcol)+cap(w.xdcol))*16 +
			w.xb.MemoryBytes() + w.xdb.MemoryBytes()
		if distSolver != nil {
			worker += distSolver.MemoryBytes(nb)
		} else {
			worker += w.ws.MemoryBytes()
		}
		acc, err := ssm.NewAccumulator(n, opts.Nrh, opts.Nmm)
		if err != nil {
			t.Fatal(err)
		}
		m := int64(opts.Nrh * opts.Nmm)
		want := q.B.MemoryBytes() + acc.MemoryBytesUsed() +
			int64(cap(probeBlock(n, opts.Nrh, opts.Seed).Data))*16 + 3*m*m*16 +
			4*worker + 2*b.MemoryBytes()
		got := MemoryEstimate(q, opts)
		// The estimate leaves out only the O(nb) per-column recurrence
		// scalars of the four workspaces.
		if slack := 4 * int64(nb) * 250; got > want || want-got > slack {
			t.Errorf("%s: MemoryEstimate = %d bytes, allocated buffers sum to %d (allowed shortfall %d)", tc.name, got, want, slack)
		}
	}
}

// TestAutoExpandOnSaturation: with a deliberately tiny probe block the
// Hankel rank saturates and AutoExpand must retry with a larger one.
func TestAutoExpandOnSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated solves at EF")
	}
	op := smallAl(t, 8)
	ef, err := bandstructure.FermiLevel(op, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qep.New(op, ef)
	opts := testOptions()
	opts.Nrh = 1
	opts.Nmm = 2 // subspace of 2: certainly saturated at EF
	opts.AutoExpand = true
	opts.MaxExpand = 3
	res, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expanded <= 1 {
		t.Errorf("probe block did not grow (Nrh stayed %d, rank %d)", res.Expanded, res.Rank)
	}
	// Without AutoExpand the saturated rank is returned as-is.
	opts.AutoExpand = false
	opts.Nrh = 1
	res2, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Expanded != 1 {
		t.Errorf("non-expanding solve changed Nrh to %d", res2.Expanded)
	}
}
