package core

import (
	"context"
	"errors"
	"math/cmplx"
	"os"
	"strconv"
	"testing"

	"cbs/internal/bandstructure"
	"cbs/internal/chaos"
	"cbs/internal/contour"
	"cbs/internal/qep"
	"cbs/internal/tb"
)

// chaosSeed reads the chaos-smoke seed matrix (CBS_CHAOS_SEED, default 1),
// so the CI job exercises several deterministic fault patterns with one
// test body.
func chaosSeed() int64 {
	if s := os.Getenv("CBS_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// chaosProblem builds the shared test system and an energy known to carry a
// propagating CBS solution (taken from the conventional band structure).
func chaosProblem(t *testing.T) *qep.Problem {
	t.Helper()
	op := smallAl(t, 8)
	a := op.G.Lz()
	k0 := 0.55 * 3.141592653589793 / a
	bands, err := bandstructure.Bands(op, []float64{k0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return qep.NewBackend(op, bands[0][2])
}

// chaosOptions are fast settings for the resilience tests.
func chaosOptions() Options {
	o := DefaultOptions()
	o.Nint = 8
	o.Nmm = 4
	o.Nrh = 6
	return o
}

// TestChaosBreakdownRecovery is the headline resilience property: with BiCG
// breakdowns injected across the contour (well over a quarter of the
// quadrature points), the perturbed-restart rung recovers every solve and
// the eigenvalues match the clean run within the residual tolerance.
// Nothing may be dropped: breakdowns are recoverable faults.
func TestChaosBreakdownRecovery(t *testing.T) {
	q := chaosProblem(t)
	opts := chaosOptions()

	clean, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Pairs) == 0 {
		t.Fatal("clean run found no eigenpairs; the comparison is vacuous")
	}

	opts.Chaos = chaos.New(chaosSeed(), chaos.Config{Breakdown: 0.5})
	faulty, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}

	d := faulty.Diagnostics
	if d.Breakdowns == 0 || d.Restarts == 0 {
		t.Fatalf("injection did not engage the ladder: %d breakdowns, %d restarts", d.Breakdowns, d.Restarts)
	}
	hitPoints := 0
	for _, ps := range faulty.Points {
		if ps.Breakdowns > 0 {
			hitPoints++
		}
	}
	if 4*hitPoints < opts.Nint {
		t.Fatalf("only %d of %d quadrature points hit; the acceptance bar is 25%%", hitPoints, opts.Nint)
	}
	if d.Degraded || len(d.DroppedPairs) > 0 {
		t.Errorf("breakdowns must be recovered, not dropped: %+v", d.DroppedPairs)
	}

	if len(faulty.Pairs) != len(clean.Pairs) {
		t.Fatalf("eigenvalue count changed under injection: %d vs %d", len(faulty.Pairs), len(clean.Pairs))
	}
	// Nearest-match comparison: the spectrum carries near-degenerate
	// conjugate pairs whose sort order is not stable across solves.
	for _, w := range clean.Pairs {
		best := cmplx.Abs(w.Lambda - faulty.Pairs[0].Lambda)
		for _, g := range faulty.Pairs[1:] {
			if d := cmplx.Abs(w.Lambda - g.Lambda); d < best {
				best = d
			}
		}
		if best > opts.ResidualTol {
			t.Errorf("eigenvalue %v moved by %g under injection (tol %g)", w.Lambda, best, opts.ResidualTol)
		}
	}

	// Diagnostics bookkeeping sanity.
	if d.Nint != opts.Nint || d.Nrh != opts.Nrh || len(d.Points) != opts.Nint {
		t.Errorf("diagnostics dimensions wrong: %+v", d)
	}
	if d.ResidualBudget <= 0 || d.ResidualBudget > opts.BiCGTol*100 {
		t.Errorf("residual budget %g outside the plausible window", d.ResidualBudget)
	}
}

// TestChaosFallbackEngaged: when restarts break down again (sticky
// breakdowns), the ladder must escalate to the GMRES fallback and still
// deliver a clean solve.
func TestChaosFallbackEngaged(t *testing.T) {
	q := chaosProblem(t)
	opts := chaosOptions()
	opts.Chaos = chaos.New(chaosSeed(), chaos.Config{
		Breakdown:        1,
		RestartBreakdown: 1,
		Columns:          []int{1},
	})
	res, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diagnostics
	if d.Fallbacks == 0 {
		t.Fatalf("sticky breakdowns did not reach the GMRES rung: %+v", d)
	}
	if d.Degraded {
		t.Errorf("fallback should have recovered the solves, dropped %+v", d.DroppedPairs)
	}
	for _, p := range res.Pairs {
		if p.Residual > opts.ResidualTol {
			t.Errorf("pair %v exceeds the residual filter: %g", p.Lambda, p.Residual)
		}
	}
}

// TestChaosGracefulDegradation: with the whole ladder sabotaged on one
// column at half the points, the (point, column) pairs are dropped
// symmetrically, the surviving weights renormalized, and the solve still
// succeeds with every reported pair passing the residual filter. Sabotaging
// every point of the column crosses the half-rule and must fail typed.
func TestChaosGracefulDegradation(t *testing.T) {
	q := chaosProblem(t)
	opts := chaosOptions()
	const col = 2
	inj := chaos.New(chaosSeed(), chaos.Config{
		Breakdown:        0.5,
		RestartBreakdown: 1,
		FallbackFail:     1,
		Columns:          []int{col},
	})
	opts.Chaos = inj
	// The injector is a pure site hash, so the sabotage pattern of this
	// seed is known before the solve: every attempt-0 hit on the column is
	// doomed (sticky restarts, failed fallback) and must become a drop.
	wantDrops := 0
	for j := 0; j < opts.Nint; j++ {
		if inj.Breakdown(chaos.Site{Point: j, Col: col}) {
			wantDrops++
		}
	}
	if wantDrops == 0 {
		t.Skipf("seed %d injects nothing on column %d at Nint=%d", chaosSeed(), col, opts.Nint)
	}
	res, err := Solve(q, opts)
	if 2*wantDrops > opts.Nint {
		if !errors.Is(err, contour.ErrTooManyDropped) {
			t.Fatalf("%d of %d nodes sabotaged: err = %v, want contour.ErrTooManyDropped", wantDrops, opts.Nint, err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diagnostics
	if !d.Degraded || len(d.DroppedPairs) != wantDrops {
		t.Fatalf("expected %d drops, got %+v", wantDrops, d.DroppedPairs)
	}
	for _, dp := range d.DroppedPairs {
		if dp.Col != col {
			t.Errorf("dropped pair %+v outside the targeted column %d", dp, col)
		}
	}
	wantFactor := float64(opts.Nint) / float64(opts.Nint-wantDrops)
	if f := d.RenormFactors[col]; f != wantFactor {
		t.Errorf("renorm factor %g, want %g for %d drops", f, wantFactor, wantDrops)
	}
	for c, f := range d.RenormFactors {
		if c != col && f != 1 {
			t.Errorf("clean column %d rescaled by %g", c, f)
		}
	}
	for _, p := range res.Pairs {
		if p.Residual > opts.ResidualTol {
			t.Errorf("pair %v exceeds the residual filter: %g", p.Lambda, p.Residual)
		}
	}

	// Dropping every point of the column is beyond the half-rule.
	opts.Chaos = chaos.New(chaosSeed(), chaos.Config{
		Breakdown:        1,
		RestartBreakdown: 1,
		FallbackFail:     1,
		Columns:          []int{col},
	})
	if _, err := Solve(q, opts); !errors.Is(err, contour.ErrTooManyDropped) {
		t.Errorf("total column loss: err = %v, want contour.ErrTooManyDropped", err)
	}
}

// TestChaosPointFaultCancels: an injected hard fault at one quadrature
// point must cancel the whole solve with a typed error under every parallel
// configuration and on both layouts of the blocked point loop (FD planes,
// tight-binding interleaved) — in bounded time, with no worker left running
// (the test binary's exit checks that via the race/leak-free wait in
// solveAll).
func TestChaosPointFaultCancels(t *testing.T) {
	fd := chaosProblem(t)
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 6, Ny: 6, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *qep.Problem
		par  Parallel
	}{
		{"fd", fd, Parallel{Top: 2, Mid: 2, Ndm: 1}},
		{"fd-dist", fd, Parallel{Top: 1, Mid: 2, Ndm: 2}},
		{"tb", qep.NewBackend(slab, -4.5), Parallel{Top: 2, Mid: 2, Ndm: 1}},
	} {
		opts := chaosOptions()
		opts.Parallel = tc.par
		opts.Chaos = chaos.New(chaosSeed(), chaos.Config{
			PointFault: 1,
			Points:     []int{3},
		})
		_, err := Solve(tc.q, opts)
		if !errors.Is(err, chaos.ErrInjected) {
			t.Errorf("%s %+v: err = %v, want chaos.ErrInjected", tc.name, tc.par, err)
		}
	}
}

// TestChaosBreakdownRecoveryDistributed: the ladder works identically when
// the breakdown strikes inside the distributed bottom layer (the injection
// decision is a pure site hash, so every rank agrees).
func TestChaosBreakdownRecoveryDistributed(t *testing.T) {
	q := chaosProblem(t)
	opts := chaosOptions()
	opts.Parallel = Parallel{Top: 1, Mid: 2, Ndm: 2}
	opts.Chaos = chaos.New(chaosSeed(), chaos.Config{Breakdown: 0.5})
	res, err := Solve(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diagnostics
	if d.Breakdowns == 0 || d.Restarts == 0 {
		t.Fatalf("distributed injection did not engage the ladder: %+v", d)
	}
	if d.Degraded {
		t.Errorf("distributed breakdowns must be recovered, dropped %+v", d.DroppedPairs)
	}
	for _, p := range res.Pairs {
		if p.Residual > opts.ResidualTol {
			t.Errorf("pair %v exceeds the residual filter: %g", p.Lambda, p.Residual)
		}
	}
}

// TestSolveContextCanceled: a dead context stops the contour promptly with
// a typed cause, both before and during the solve.
func TestSolveContextCanceled(t *testing.T) {
	q := chaosProblem(t)
	opts := chaosOptions()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, q, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled: err = %v, want context.Canceled", err)
	}

	// Cancel mid-solve from a worker-observable point: a context canceled
	// by a timer that has already expired when the first point completes.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		cancel2()
	}()
	<-done
	if _, err := SolveContext(ctx2, q, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: err = %v, want context.Canceled", err)
	}
}

// TestCoreTypedSentinels: option validation fails with errors.Is-able
// sentinels.
func TestCoreTypedSentinels(t *testing.T) {
	op := smallAl(t, 8)
	q := qep.NewBackend(op, 0.1)
	bad := DefaultOptions()
	bad.Nint = 0
	if _, err := Solve(q, bad); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Nint=0: err = %v, want ErrBadOptions", err)
	}
	big := DefaultOptions()
	big.Nrh = op.N()
	big.Nmm = 8
	if _, err := Solve(q, big); !errors.Is(err, ErrSubspaceTooLarge) {
		t.Errorf("oversized subspace: err = %v, want ErrSubspaceTooLarge", err)
	}
}
