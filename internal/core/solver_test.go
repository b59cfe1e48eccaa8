package core

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"cbs/internal/bandstructure"
	"cbs/internal/dist"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/ssm"
	"cbs/internal/tb"
	"cbs/internal/zlinalg"
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
	q := qep.NewBackend(op, e)
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
	q := qep.NewBackend(op, ef)
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

// layoutDiff reports the first difference between two solves in what a
// Top/Mid layout must not change: the bits of every AllPairs eigenvalue and
// Hankel singular value, the operator-application count and the per-point
// statistics. It returns "" when there is none.
func layoutDiff(got, want *Result) string {
	if len(got.AllPairs) != len(want.AllPairs) {
		return fmt.Sprintf("%d eigenvalues, serial %d", len(got.AllPairs), len(want.AllPairs))
	}
	for i := range want.AllPairs {
		g, w := got.AllPairs[i].Lambda, want.AllPairs[i].Lambda
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			return fmt.Sprintf("eigenvalue %d: %v, serial %v (moved by %g)", i, g, w, cmplx.Abs(g-w))
		}
	}
	if len(got.Sigma) != len(want.Sigma) {
		return fmt.Sprintf("%d singular values, serial %d", len(got.Sigma), len(want.Sigma))
	}
	for i := range want.Sigma {
		if math.Float64bits(got.Sigma[i]) != math.Float64bits(want.Sigma[i]) {
			return fmt.Sprintf("singular value %d: %g, serial %g", i, got.Sigma[i], want.Sigma[i])
		}
	}
	if got.MatVecs != want.MatVecs {
		return fmt.Sprintf("MatVecs %d, serial %d", got.MatVecs, want.MatVecs)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		return "per-point statistics differ from the serial run"
	}
	return ""
}

// TestParallelLayersBitIdentical: the top and middle layers only reschedule
// the same arithmetic (each top block commits its quadrature points in point
// order), so every Top/Mid layout, the derived Mid 0 included, returns the
// bits of the serial solve on both backends, run after run. Small enough for
// -short, so the race job drives the ordered commit.
func TestParallelLayersBitIdentical(t *testing.T) {
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 6, Ny: 6, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *qep.Problem
	}{
		{"fd", chaosProblem(t)},
		{"tb", qep.NewBackend(slab, -4.5)},
	} {
		opts := chaosOptions()
		opts.Parallel = Parallel{Top: 1, Mid: 1, Ndm: 1}
		serial, err := Solve(tc.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, top := range []int{1, 2, 3} {
			for _, mid := range []int{0, 1, 2, 4} {
				opts.Parallel = Parallel{Top: top, Mid: mid, Ndm: 1}
				for rep := 0; rep < 3; rep++ {
					r, err := Solve(tc.q, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", tc.name, opts.Parallel, err)
					}
					if d := layoutDiff(r, serial); d != "" {
						t.Errorf("%s %+v rep %d: %s", tc.name, opts.Parallel, rep, d)
					}
				}
			}
		}
	}
}

// TestParallelLayersAgree: every parallel configuration must produce the
// same spectrum as the serial run: bit for bit on the Top/Mid layouts, to
// 1e-4 with the bottom layer decomposed.
func TestParallelLayersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("long multi-config solve; TestGroupStopConcurrentBlocked covers concurrency in -short runs")
	}
	op := smallAl(t, 16)
	ef, err := bandstructure.FermiLevel(op, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qep.NewBackend(op, ef)
	opts := testOptions()
	opts.Nint = 8
	opts.Nmm = 4
	opts.Nrh = 6
	opts.Parallel = Parallel{Top: 1, Mid: 1, Ndm: 1}

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
		if cfg.Ndm == 1 {
			if d := layoutDiff(r, serial); d != "" {
				t.Errorf("%+v: %s", cfg, d)
			}
			continue
		}
		got := lambdaSet(r)
		if len(got) != len(want) {
			t.Errorf("%+v: %d eigenvalues, serial found %d", cfg, len(got), len(want))
			continue
		}
		// The decomposed bottom layer sums its inner products in another
		// order, and the coarse Nint=8 extraction amplifies that; 1e-4 is
		// well below any physical scale here.
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-4 {
				t.Errorf("%+v: eigenvalue %d: %v vs serial %v", cfg, i, got[i], want[i])
			}
		}
		if r.CommBytes == 0 {
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
	q := qep.NewBackend(op, ef)
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
	q := qep.NewBackend(op, 0.1)
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
	q := qep.NewBackend(op, 0.1)
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
	m8 := MemoryEstimate(qep.NewBackend(op8, 0), opts)
	m16 := MemoryEstimate(qep.NewBackend(op16, 0), opts)
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
// decomposed solver's (pinned to the ranks' buffers in package dist), and
// each block keeps its point order's spare solution buffers. A Mid of 0
// counts the workers the host derives, GOMAXPROCS/Top. The Hankel SVD's
// work is zlinalg.SVDWorkBytes, pinned to the SVD's allocations there.
func TestMemoryEstimateCountsAllocatedBuffers(t *testing.T) {
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 8, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	derived := max(min(runtime.GOMAXPROCS(0)/2, testOptions().Nint), 1)
	for _, tc := range []struct {
		name          string
		q             *qep.Problem
		mid, ndm      int
		workersPerTop int
	}{
		{"fd", qep.NewBackend(smallAl(t, 8), 0), 2, 1, 2},
		{"fd-derived", qep.NewBackend(smallAl(t, 8), 0), 0, 1, derived},
		{"fd-dist", qep.NewBackend(smallAl(t, 8), 0), 2, 2, 2},
		{"tb", qep.NewBackend(slab, 0), 2, 1, 2},
	} {
		q := tc.q
		opts := testOptions()
		opts.Parallel = Parallel{Top: 2, Mid: tc.mid, Ndm: tc.ndm}
		n, nb := q.Dim(), opts.Nrh/opts.Parallel.Top
		b := soa.NewBlock[float64](n, nb)
		var distSolver *dist.Solver
		if tc.ndm > 1 {
			if distSolver, err = dist.NewSolver(q, tc.ndm); err != nil {
				t.Fatal(err)
			}
		}
		w := newBlockWorker(q, b, distSolver)
		worker := w.x.MemoryBytes() + w.xd.MemoryBytes() +
			w.bcol.MemoryBytes() + w.xcol.MemoryBytes() + w.xdcol.MemoryBytes()
		if distSolver != nil {
			worker += distSolver.MemoryBytes(nb)
		} else {
			worker += w.ws.MemoryBytes()
		}
		order := newPointOrder(opts.Nint, tc.workersPerTop, n, nb, nil)
		var spares int64
		for range len(order.spares) {
			s := <-order.spares
			spares += s.x.MemoryBytes() + s.xd.MemoryBytes()
		}
		acc, err := ssm.NewAccumulator(n, opts.Nrh, opts.Nmm)
		if err != nil {
			t.Fatal(err)
		}
		m := int64(opts.Nrh * opts.Nmm)
		want := q.B.MemoryBytes() + acc.MemoryBytesUsed() +
			int64(cap(probeBlock(n, opts.Nrh, opts.Seed).Data))*16 + 2*m*m*16 +
			zlinalg.SVDWorkBytes(int(m)) +
			int64(2*tc.workersPerTop)*worker + 2*(b.MemoryBytes()+spares)
		got := MemoryEstimate(q, opts)
		// The estimate leaves out only the O(nb) per-column recurrence
		// scalars of the four workspaces.
		if slack := 4 * int64(nb) * 250; got > want || want-got > slack {
			t.Errorf("%s: MemoryEstimate = %d bytes, allocated buffers sum to %d (allowed shortfall %d)", tc.name, got, want, slack)
		}
	}
}

// TestPointOrderParksOutOfTurnPoints drives one top block's commit order
// directly: points solved before their turn are parked and their workers
// go on with spares; with the spares used up a worker waits until a commit
// frees one (or its context ends); and every point is applied once, in
// point order.
func TestPointOrderParksOutOfTurnPoints(t *testing.T) {
	var applied []int
	o := newPointOrder(6, 2, 3, 1, func(p *solvedPoint) { applied = append(applied, p.j) })
	point := func(j int) *solvedPoint {
		return &solvedPoint{j: j, x: soa.NewBlock[float64](3, 1), xd: soa.NewBlock[float64](3, 1)}
	}
	ctx := context.Background()
	for _, j := range []int{2, 1} {
		p := point(j)
		if s, ok := o.commit(ctx, p); !ok || s == p || s.x.Len() != 3 || s.xd.Len() != 3 {
			t.Fatalf("point %d out of turn: got (%p, %v), want a spare in place of %p", j, s, ok, p)
		}
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, ok := o.commit(short, point(5)); ok {
		t.Fatal("point 5 got a spare with none left")
	}
	done := make(chan bool)
	go func() {
		_, ok := o.commit(ctx, point(4))
		done <- ok
	}()
	p0 := point(0)
	if s, ok := o.commit(ctx, p0); !ok || s != p0 {
		t.Fatalf("point 0 in turn: got (%p, %v), want its own buffers back", s, ok)
	}
	if ok := <-done; !ok {
		t.Fatal("the point 4 worker was not handed a freed spare")
	}
	p3 := point(3)
	if s, ok := o.commit(ctx, p3); !ok || s != p3 {
		t.Fatalf("point 3 in turn: got (%p, %v), want its own buffers back", s, ok)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(applied, want) {
		t.Errorf("applied %v, want %v", applied, want)
	}
	// Committed parked points return their buffers to the pool: the two
	// spares, plus point 5's, whose worker gave up without taking one.
	if want := pointSpares(2) + 1; len(o.spares) != want {
		t.Errorf("%d spares back in the pool, want %d", len(o.spares), want)
	}
}

// TestMemoryEstimateCountsStartedWorkers: solveAll starts no worker that
// could never get a point or a column block, and MemoryEstimate counts none:
// Mid is capped at Nint and Top at Nrh.
func TestMemoryEstimateCountsStartedWorkers(t *testing.T) {
	q := qep.NewBackend(smallAl(t, 8), 0)
	opts := testOptions()
	opts.Nint = 8
	for _, tc := range []struct{ over, capped Parallel }{
		{Parallel{Top: 1, Mid: 64}, Parallel{Top: 1, Mid: 8}},
		{Parallel{Top: 2, Mid: 9}, Parallel{Top: 2, Mid: 8}},
		{Parallel{Top: 64, Mid: 1}, Parallel{Top: opts.Nrh, Mid: 1}},
	} {
		over, capped := opts, opts
		over.Parallel, capped.Parallel = tc.over, tc.capped
		if got, want := MemoryEstimate(q, over), MemoryEstimate(q, capped); got != want {
			t.Errorf("%+v: MemoryEstimate = %d, want the %+v estimate %d", tc.over, got, tc.capped, want)
		}
	}
}

// TestSaturatedSolveKeepsNrh: with a deliberately tiny probe block the
// Hankel rank saturates, and the solve returns the saturated rank as-is
// at the Nrh it was given — growing the probe block is the sweep
// ladder's decision (sweep TestNrhRungGrowsSaturatedProbeBlock).
func TestSaturatedSolveKeepsNrh(t *testing.T) {
	if testing.Short() {
		t.Skip("solve at EF")
	}
	op := smallAl(t, 8)
	ef, err := bandstructure.FermiLevel(op, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qep.NewBackend(op, ef)
	opts := testOptions()
	opts.Nrh = 1
	opts.Nmm = 2 // subspace of 2: certainly saturated at EF
	res, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank < opts.Nrh*opts.Nmm {
		t.Errorf("rank %d below Nrh*Nmm = %d: the subspace did not saturate", res.Rank, opts.Nrh*opts.Nmm)
	}
	if res.Expanded != 1 {
		t.Errorf("saturated solve changed Nrh to %d", res.Expanded)
	}
}

// TestResolveSplitsTheShare pins the one resolver over share × Top × Mid ×
// Nint: a Mid of 0 becomes share/Top (at least 1, at most Nint), and an
// explicit layout is left as the caller set it, up to the Nrh and Nint caps.
func TestResolveSplitsTheShare(t *testing.T) {
	for _, tc := range []struct {
		share     int
		in        Parallel
		nrh, nint int
		want      Parallel
	}{
		{4, Parallel{Top: 1}, 8, 16, Parallel{Top: 1, Mid: 4, Ndm: 1}},
		{4, Parallel{Top: 2}, 8, 16, Parallel{Top: 2, Mid: 2, Ndm: 1}},
		{2, Parallel{Top: 2}, 8, 16, Parallel{Top: 2, Mid: 1, Ndm: 1}},
		{1, Parallel{Top: 2}, 8, 16, Parallel{Top: 2, Mid: 1, Ndm: 1}},   // floor at 1
		{1, Parallel{Top: 3}, 8, 16, Parallel{Top: 3, Mid: 1, Ndm: 1}},   // 1/3 floors to 1
		{16, Parallel{Top: 1}, 8, 4, Parallel{Top: 1, Mid: 4, Ndm: 1}},   // Nint cap
		{16, Parallel{Top: 64}, 4, 16, Parallel{Top: 4, Mid: 4, Ndm: 1}}, // Nrh cap, then share/Top
		{1, Parallel{Top: 2, Mid: 3, Ndm: 2}, 8, 16, Parallel{Top: 2, Mid: 3, Ndm: 2}},
		{8, Parallel{Top: 1, Mid: 1}, 8, 16, Parallel{Top: 1, Mid: 1, Ndm: 1}},
		{1, Parallel{Mid: 6}, 8, 4, Parallel{Top: 1, Mid: 4, Ndm: 1}},
	} {
		in := tc.in
		in.share = tc.share
		got := in.resolve(tc.nrh, tc.nint)
		got.share = 0
		if got != tc.want {
			t.Errorf("share %d, %+v, nrh %d, nint %d: resolved %+v, want %+v",
				tc.share, tc.in, tc.nrh, tc.nint, got, tc.want)
		}
	}
}

// TestSplitDividesTheShare: an unsplit layout holds GOMAXPROCS, Split(k)
// divides whatever share it holds by k, and no share falls below 1.
func TestSplitDividesTheShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var p Parallel
	for _, tc := range []struct {
		p    Parallel
		want int
	}{
		{p, 4},
		{p.Split(0), 4},
		{p.Split(1), 4},
		{p.Split(2), 2},
		{p.Split(3), 1},
		{p.Split(2).Split(2), 1},
		{p.Split(8), 1},
		{p.Split(8).Split(2), 1},
	} {
		if got := tc.p.Cores(); got != tc.want {
			t.Errorf("%+v: Cores() = %d, want %d", tc.p, got, tc.want)
		}
	}
}
